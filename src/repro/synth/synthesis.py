"""Per-block synthesis driver: space reduction -> anneal -> verify.

One call sizes one MDAC's opamp against its block spec, exactly in the
paper's style: the SFG-reduced space is searched by annealing on the fast
equation metrics, and the winner is verified (and if needed, repaired) with
the nonlinear transient settling simulation.  The search reads only the
spec's :class:`~repro.specs.stage.MdacProblem`, so specs with equal
problems get equal blocks.
"""

from __future__ import annotations

import dataclasses
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

#: Multiplicative current/cc bump applied per repair round when the
#: transient verification misses the settling spec.
_REPAIR_FACTOR = 1.30
_MAX_REPAIRS = 3


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
    ``synth.newton_iterations``, and the timesteps of its settling
    transients to ``synth.transient_steps``.
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

    sizing = space.decode(best_x)
    final = evaluator.evaluate(sizing, run_transient=verify_transient)

    # Repair loop: if the large-swing simulation disagrees with the linear
    # prediction, bump the bias current and compensation and re-verify.
    repairs = 0
    while (
        verify_transient
        and final.settling_error is not None
        and final.settling_error > problem.settling_error
        and repairs < _MAX_REPAIRS
    ):
        repairs += 1
        sizing = dataclasses.replace(
            sizing,
            i_tail=sizing.i_tail * _REPAIR_FACTOR,
            w_input=sizing.w_input * _REPAIR_FACTOR,
            w_stage2=sizing.w_stage2 * _REPAIR_FACTOR,
            w_tail=sizing.w_tail * _REPAIR_FACTOR,
            # A modest compensation bump keeps the phase margin growing with
            # the extra second-stage transconductance.
            c_comp=sizing.c_comp * 1.15,
        )
        final = evaluator.evaluate(sizing, run_transient=True)

    metrics.counter("synth.rejected_candidates", evaluator.rejected_evals)
    for stage, count in evaluator.rejected_at.items():
        metrics.counter(f"synth.rejected_at_{stage}", count)
    metrics.counter("synth.ac_points", evaluator.ac_points)
    metrics.counter("synth.dc_solves", evaluator.dc_solves)
    metrics.counter("synth.newton_iterations", evaluator.newton_iterations)
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
