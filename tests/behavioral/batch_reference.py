"""The scalar per-sample walk, kept as the oracle of the batch kernel.

:func:`simulate_legacy` is the behavioral simulation as it ran before the
draws × samples array program: the scalar pipeline blocks, one sample at
a time.  :func:`simulate_draws` gives it the call shape of
:func:`repro.behavioral.batch.simulate_draws`, so a test can swap it in
for the kernel (``tests/behavioral/test_batch_kernel.py``) and the
``behavioral`` bench stage can time it as the reference side.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.behavioral.batch import BatchResult
from repro.behavioral.correction import combine_codes
from repro.behavioral.nonideal import StageErrorModel
from repro.behavioral.pipeline import BehavioralPipeline
from repro.blocks.sah import SampleAndHold
from repro.enumeration.candidates import PipelineCandidate


def simulate_draws(
    candidate: PipelineCandidate,
    full_scale: float,
    error_draws: Sequence[Sequence[StageErrorModel]],
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator] | None = None,
    sah: SampleAndHold | None = None,
) -> BatchResult:
    """:func:`simulate_legacy` behind the kernel's signature and defaults."""
    return simulate_legacy(
        candidate,
        full_scale,
        [tuple(models) for models in error_draws],
        np.asarray(samples, dtype=float),
        rngs,
        SampleAndHold() if sah is None else sah,
    )


def simulate_legacy(
    candidate: PipelineCandidate,
    full_scale: float,
    error_draws: list[tuple[StageErrorModel, ...]],
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator] | None,
    sah: SampleAndHold,
) -> BatchResult:
    """The reference kernel: the existing scalar walk, one sample at a time.

    Reuses the scalar building blocks verbatim —
    :meth:`~repro.blocks.sah.SampleAndHold.sample`,
    :meth:`~repro.behavioral.pipeline.PipelineStage.convert`, the ideal
    backend quantizer and :func:`~repro.behavioral.correction.combine_codes`
    — in exactly the order :meth:`BehavioralPipeline.convert` applies them,
    so its codes (and RNG consumption) match the pipeline walk bit for bit.
    """
    draws, n_samples = len(error_draws), len(samples)
    n_stages = candidate.stage_count
    stage_codes = np.zeros((draws, n_samples, n_stages), dtype=np.int64)
    residues = np.zeros((draws, n_samples))
    backend_codes = np.zeros((draws, n_samples), dtype=np.int64)
    codes = np.zeros((draws, n_samples), dtype=np.int64)
    stage_bits = list(candidate.resolutions)
    for d, models in enumerate(error_draws):
        pipeline = BehavioralPipeline(
            candidate, full_scale, stage_errors=models, sah=sah
        )
        stages = pipeline._stages()
        rng = rngs[d] if rngs is not None else None
        for s in range(n_samples):
            v = pipeline.sah.sample(float(samples[s]), rng)
            sample_codes: list[int] = []
            for j, stage in enumerate(stages):
                code, v = stage.convert(v, rng)
                sample_codes.append(code)
                stage_codes[d, s, j] = code
            residues[d, s] = v
            backend = pipeline._backend_quantize(v)
            backend_codes[d, s] = backend
            codes[d, s] = combine_codes(
                sample_codes,
                stage_bits,
                backend,
                pipeline.backend_bits,
                pipeline.total_bits,
            )
    return BatchResult(stage_codes, residues, backend_codes, codes)
