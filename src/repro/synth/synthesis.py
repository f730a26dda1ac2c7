"""Per-block synthesis driver: space reduction -> anneal -> verify.

One call sizes one MDAC's opamp against its block spec, exactly in the
paper's style: the SFG-reduced space is searched by annealing on the fast
equation metrics, which carry a settling predictor, and the winner is
judged by the nonlinear transient settling simulation (re-searched at
most once when the predictor fell short).  The search reads only the
spec's :class:`~repro.specs.stage.MdacProblem`, so specs with equal
problems get equal blocks.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.errors import SynthesisError
from repro.obs import metrics
from repro.specs.stage import MdacSpec
from repro.synth.anneal import Reject, anneal
from repro.synth.de import differential_evolution
from repro.synth.evaluator import HybridEvaluator
from repro.synth.patternsearch import pattern_search
from repro.synth.result import SynthesisResult
from repro.synth.space import two_stage_space
from repro.tech.process import Technology


def synthesize_mdac(
    mdac: MdacSpec,
    tech: Technology,
    budget: int = 400,
    seed: int = 1,
    optimizer: str = "anneal",
    x0: np.ndarray | None = None,
    verify_transient: bool = True,
    retargeted: bool = False,
) -> SynthesisResult:
    """Synthesize one MDAC opamp; returns the verified result.

    Only ``mdac.problem`` is read; the result's ``spec`` is ``mdac``.
    ``optimizer`` is ``"anneal"`` (default, NeoCircuit-style) or ``"de"``.
    ``x0`` (unit coordinates) warm-starts the search — used by retargeting.
    The anneal and the pattern-search polish hand the evaluator their
    ``reject`` callback, which it asks after the DC solve, the gain point
    and the top of the loop grid, so a candidate they would turn down skips
    the rest of its evaluation; differential evolution compares without
    one.  Once per search, the number of such candidates goes to the
    ``synth.rejected_candidates`` counter, split by stage into
    ``synth.rejected_at_dc``, ``synth.rejected_at_gain`` and
    ``synth.rejected_at_bandwidth``; the AC frequency points the
    evaluator solved go to ``synth.ac_points``, its DC solves and their
    Newton iterations to ``synth.dc_solves`` and
    ``synth.newton_iterations``, and its settling transients and their
    timesteps to ``synth.transients`` and ``synth.transient_steps``.

    The search aims at :data:`~repro.synth.evaluator.PHASE_MARGIN_TARGET`,
    the equation side's settling predictor, and with ``verify_transient``
    the polished design gets a settling transient.  When that transient
    misses the settling error while every other constraint holds, one
    re-search asks for a loop faster by the time constants it missed, and
    a second transient judges the result: a search runs at most two
    transients, counted in ``synth.transients``, and its fallbacks in
    ``synth.repairs`` (``transient_evals`` is 2 on a block that took one).
    """
    start = time.perf_counter()
    problem = mdac.problem
    space = two_stage_space(problem, tech)
    evaluator = HybridEvaluator(problem, tech)

    def cost_fn(u: np.ndarray, reject: Reject | None = None) -> float:
        return evaluator.evaluate(space.decode(u), reject=reject).cost()

    if optimizer == "anneal":
        run = anneal(cost_fn, space.dimension, budget=budget, seed=seed, x0=x0)
    elif optimizer == "de":
        run = differential_evolution(
            cost_fn, space.dimension, budget=budget, seed=seed, x0=x0
        )
    else:
        raise SynthesisError(f"unknown optimizer {optimizer!r}")

    # Local polish: a short pattern search closes the last few percent of
    # constraint margin the annealer leaves behind.
    polish_budget = max(40, budget // 4)
    best_x, _, _ = pattern_search(cost_fn, run.best_x, budget=polish_budget)

    final = evaluator.evaluate(space.decode(best_x), run_transient=verify_transient)

    # At most one fallback: a transient that misses the settling error
    # while every other constraint holds shows that the single-pole
    # predictor was short by ln(e / eps) time constants.  Re-search once
    # for a loop that much faster, then verify once more.
    repairs = 0
    if (
        final.settling_error is not None
        and final.settling_error > problem.settling_error
        and all(v <= 0.0 for k, v in final.violations.items() if k != "settling")
    ):
        n_tau = -math.log(problem.settling_error)
        short = math.log(final.settling_error / problem.settling_error)
        evaluator.require_bandwidth(problem.closed_loop_bw_hz * (1.0 + short / n_tau))
        best_x, _, _ = pattern_search(cost_fn, best_x, budget=polish_budget)
        evaluator.require_bandwidth(problem.closed_loop_bw_hz)
        final = evaluator.evaluate(space.decode(best_x), run_transient=True)
        repairs = 1

    metrics.counter("synth.rejected_candidates", evaluator.rejected_evals)
    for stage, count in evaluator.rejected_at.items():
        metrics.counter(f"synth.rejected_at_{stage}", count)
    metrics.counter("synth.ac_points", evaluator.ac_points)
    metrics.counter("synth.dc_solves", evaluator.dc_solves)
    metrics.counter("synth.newton_iterations", evaluator.newton_iterations)
    metrics.counter("synth.transients", evaluator.transient_evals)
    metrics.counter("synth.repairs", repairs)
    metrics.counter("synth.transient_steps", evaluator.transient_steps)
    return SynthesisResult(
        spec=mdac,
        final=final,
        history=run.history,
        equation_evals=evaluator.equation_evals,
        transient_evals=evaluator.transient_evals,
        retargeted=retargeted,
        wall_seconds=time.perf_counter() - start,
    )
