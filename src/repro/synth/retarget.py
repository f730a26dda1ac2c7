"""Retargeting: re-synthesize a sized block against a new specification.

The paper reports that setting up the first synthesis took 2-3 weeks while
subsequent blocks took about a day, because only the specification changes.
Mechanically that is a warm start: the previous solution, scaled by the
ratio of required transconductances and load capacitances, seeds a much
shorter search.  ``benchmarks/bench_retarget.py`` measures the resulting
evaluation-count reduction.

The specification that changes is the block's
:class:`~repro.specs.stage.MdacProblem`, the part of an MDAC spec that
synthesis reads: a retarget reads the donor's and the new spec's problems
only, and a spec whose problem equals an already-sized block's needs no
retarget at all (the campaign ledger serves it that block).
"""

from __future__ import annotations

import numpy as np

from repro.specs.stage import MdacSpec
from repro.synth.result import SynthesisResult
from repro.synth.space import two_stage_space
from repro.synth.synthesis import synthesize_mdac
from repro.tech.process import Technology


def retarget_mdac(
    previous: SynthesisResult,
    new_spec: MdacSpec,
    tech: Technology,
    budget: int = 60,
    seed: int = 7,
    verify_transient: bool = True,
) -> SynthesisResult:
    """Warm-started synthesis of ``new_spec`` from a previously sized block.

    The previous sizing is scaled by the gm-requirement ratio (currents and
    widths) and the effective-load ratio (compensation cap), then encoded
    into the *new* problem's design space as the annealer's starting point.
    Only the two specs' ``problem`` is read; the result's ``spec`` is
    ``new_spec``.
    """
    old = previous.final.sizing
    problem, donor = new_spec.problem, previous.spec.problem
    gm_ratio = problem.gm_required / donor.gm_required
    load_ratio = problem.c_eff / donor.c_eff

    seeded = {
        "w_input": old.w_input * gm_ratio,
        "w_load": old.w_load * gm_ratio,
        "w_stage2": old.w_stage2 * gm_ratio,
        "w_tail": old.w_tail * gm_ratio,
        "l_input": old.l_input,
        "l_mirror": old.l_mirror,
        "i_tail": old.i_tail * gm_ratio,
        "stage2_ratio": old.stage2_ratio,
        "c_comp": old.c_comp * load_ratio,
    }
    space = two_stage_space(problem, tech)
    x0 = np.clip(space.encode(seeded), 0.0, 1.0)
    return synthesize_mdac(
        new_spec,
        tech,
        budget=budget,
        seed=seed,
        x0=x0,
        verify_transient=verify_transient,
        retargeted=True,
    )
