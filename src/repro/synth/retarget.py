"""Retargeting: re-synthesize a sized block against a new specification.

The paper reports that setting up the first synthesis took 2-3 weeks while
subsequent blocks took about a day, because only the specification changes.
Mechanically that is a warm start: the previous solution, scaled by the
ratio of required transconductances and load capacitances, seeds a much
shorter search.  ``benchmarks/bench_retarget.py`` measures the resulting
evaluation-count reduction.
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
    into the *new* spec's design space as the annealer's starting point.
    """
    old = previous.final.sizing
    gm_ratio = new_spec.gm_required / previous.spec.gm_required
    load_ratio = new_spec.c_eff / previous.spec.c_eff

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
    space = two_stage_space(new_spec, tech)
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
