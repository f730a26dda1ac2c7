"""The per-parameter draw loop, kept as the oracle of ``draw_error_models``.

:func:`draw_error_models` is the mismatch sampler as it ran before the
parameters came from one ``(draws, width)`` standard-normal block: one
generator call per gain, per offset vector and per DAC-level vector, in
draw-major, stage-major order.  ``tests/behavioral/test_draw_models.py``
requires the package's sampler to return the same models, float for
float, and to leave every generator in the same state.
"""

from __future__ import annotations

import math

import numpy as np

from repro.behavioral.nonideal import StageErrorModel
from repro.behavioral.verify import DEFAULT_MISMATCH, MismatchSpec
from repro.errors import SpecificationError
from repro.specs.stage import StagePlan


def draw_error_models(
    plan: StagePlan,
    draws: int,
    seed: int,
    mismatch: MismatchSpec = DEFAULT_MISMATCH,
) -> tuple[tuple[tuple[StageErrorModel, ...], ...], tuple[np.random.Generator, ...]]:
    """The reference sampler: one generator call per parameter group."""
    if draws < 1:
        raise SpecificationError("draws must be >= 1")
    root = np.random.SeedSequence(seed)
    param_seq, noise_seq = root.spawn(2)
    rng = np.random.default_rng(param_seq)
    lsb = plan.spec.lsb
    all_draws: list[tuple[StageErrorModel, ...]] = []
    for _ in range(draws):
        models: list[StageErrorModel] = []
        for mdac, sub_adc in zip(plan.mdacs, plan.sub_adcs):
            eps = mdac.settling_error
            gain_z = rng.standard_normal()
            offset_z = rng.standard_normal(sub_adc.comparator_count)
            dac_z = rng.standard_normal(2**mdac.stage_bits - 1)
            gain_error = mismatch.gain_error_sigma * eps * gain_z
            settling = 0.0
            if mismatch.systematic:
                # Static gain error from the minimum-DC-gain opamp:
                # -1/(A0*beta) with A0 = 2/(eps*beta) is exactly -eps/2.
                gain_error -= eps / 2.0
                settling = eps
            offsets = mismatch.offset_sigma * sub_adc.offset_tolerance * offset_z
            dac_errors = mismatch.dac_error_sigma * lsb * dac_z
            noise_rms = mismatch.noise_sigma * math.sqrt(mdac.noise_allocation)
            models.append(
                StageErrorModel(
                    gain_error=float(gain_error),
                    settling_error=settling,
                    comparator_offsets=tuple(float(x) for x in offsets),
                    noise_rms=noise_rms,
                    dac_level_errors=tuple(float(x) for x in dac_errors),
                )
            )
        all_draws.append(tuple(models))
    noise_rngs = tuple(np.random.default_rng(s) for s in noise_seq.spawn(draws))
    return tuple(all_draws), noise_rngs
