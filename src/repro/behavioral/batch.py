"""Vectorized Monte-Carlo pipeline simulation: draws × samples × stages.

:func:`simulate_blocks` converts the input record under every mismatch
draw one block of ``max(1, _BLOCK_ELEMENTS // samples)`` draws at a time,
bit-identical to the scalar per-sample walk of
:class:`~repro.behavioral.pipeline.BehavioralPipeline`.  A block's
``(rows, samples)`` arrays stay in cache from the sample-and-hold through
every stage, the backend quantizer and the integer correction, and the
block is yielded as its own trace: a consumer that keeps only what it
reads from each block (the verifier keeps one SNDR per draw) holds one
block at a time, whatever the draw count.  :func:`simulate_draws` copies
the blocks into one full trace that spans every draw.

Bit-identity holds because every element goes through the scalar walk's
IEEE expressions op for op (numpy elementwise double ops are the same
operations the scalar walk performs; integer codes and the correction are
exact), and because thermal noise replays the scalar RNG *stream*: the
scalar walk consumes one standard normal per noisy source per sample
(sample-major, source-minor), exactly the C-order fill of
``Generator.standard_normal((samples, k))``, and
``Generator.normal(0.0, sigma)`` is ``0.0 + sigma * z`` on that same
stream.  Blocks draw their noise in draw order and nothing draws in
between, so drawing a draw's noise when its block starts consumes every
generator exactly as drawing every draw's noise up front did.  The
equivalence is enforced against the scalar walk kept in
``tests/behavioral/batch_reference.py`` by
``tests/behavioral/test_batch_kernel.py`` and the ``behavioral`` stage of
``benchmarks/run_all.py --check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.behavioral.nonideal import StageErrorModel
from repro.blocks.sah import SampleAndHold
from repro.blocks.subadc import FlashSubAdc
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError

#: Elements in one block's ``(rows, samples)`` arrays: 256 KiB of float64,
#: 16 draws at the default 2048 samples.  The block's rows follow from the
#: sample count; this is not a knob.
_BLOCK_ELEMENTS = 32768


@dataclass(frozen=True)
class BatchResult:
    """Conversion trace of draws × samples: every draw, or one block of them.

    :func:`simulate_draws` returns one over every draw and
    :func:`simulate_blocks` one per block; ``draws`` below is then the
    block's row count.
    """

    #: Raw per-stage codes, shape ``(draws, samples, stage_count)``.
    stage_codes: np.ndarray
    #: Final residue entering the ideal backend, shape ``(draws, samples)``.
    residues: np.ndarray
    #: Backend quantizer codes, shape ``(draws, samples)``.
    backend_codes: np.ndarray
    #: Corrected K-bit output words, shape ``(draws, samples)``.
    codes: np.ndarray = field(default=None)  # type: ignore[assignment]


def simulate_blocks(
    candidate: PipelineCandidate,
    full_scale: float,
    error_draws: Sequence[Sequence[StageErrorModel]],
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator] | None = None,
    sah: SampleAndHold | None = None,
) -> Iterator[tuple[int, BatchResult]]:
    """Convert ``samples`` under every mismatch draw, one block at a time.

    ``error_draws`` holds one per-stage error-model tuple per Monte-Carlo
    draw; ``rngs`` supplies one independent generator per draw (required
    whenever any error model carries thermal noise — each draw owns its
    noise stream so draws are order-independent and replayable).  The
    generators are consumed exactly as the scalar walk consumes them, so
    the same seeded generators produce the scalar walk's traces bit for bit.

    The arguments are checked and every stage's tables built here, before
    any generator is touched, so a refused call raises at once and leaves
    the generators where they were.  Iterating yields ``(first_draw,
    block)`` in draw order: ``block`` is the trace of draws
    ``first_draw`` to ``first_draw + len(block.codes)``, freshly allocated.
    """
    if sah is None:
        sah = SampleAndHold()
    error_draws = [tuple(models) for models in error_draws]
    for models in error_draws:
        if len(models) != candidate.stage_count:
            raise SpecificationError("one error model per stage required")
    if rngs is not None and len(rngs) != len(error_draws):
        raise SpecificationError("one rng per draw required")
    noisy = sah.noise_rms > 0.0 or any(
        model.noise_rms > 0.0 for models in error_draws for model in models
    )
    if noisy and rngs is None:
        raise SpecificationError("rngs required when any draw carries noise")
    # Structural validation the scalar walk performs inside combine_codes.
    if candidate.frontend_bits > candidate.total_bits - 1:
        raise SpecificationError("stages resolve more than total_bits")
    stages = _stages(candidate, full_scale, error_draws)
    samples = np.asarray(samples, dtype=float)
    return _simulate_blocks(
        candidate, full_scale, error_draws, samples, rngs, sah, stages
    )


def simulate_draws(
    candidate: PipelineCandidate,
    full_scale: float,
    error_draws: Sequence[Sequence[StageErrorModel]],
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator] | None = None,
    sah: SampleAndHold | None = None,
) -> BatchResult:
    """The full trace of :func:`simulate_blocks`: every draw in one result.

    Allocates the four outputs over every draw and copies each block into
    them, so it holds its outputs plus one block.  Arguments, refusals and
    generator consumption are :func:`simulate_blocks`'.
    """
    blocks = simulate_blocks(candidate, full_scale, error_draws, samples, rngs, sah)
    shape = (len(error_draws), len(samples))
    trace = BatchResult(
        stage_codes=np.empty(shape + (candidate.stage_count,), dtype=np.int64),
        residues=np.empty(shape),
        backend_codes=np.empty(shape, dtype=np.int64),
        codes=np.empty(shape, dtype=np.int64),
    )
    for d0, block in blocks:
        d1 = d0 + len(block.codes)
        trace.stage_codes[d0:d1] = block.stage_codes
        trace.residues[d0:d1] = block.residues
        trace.backend_codes[d0:d1] = block.backend_codes
        trace.codes[d0:d1] = block.codes
        del block  # freed before the kernel builds the next one
    return trace


@dataclass(frozen=True)
class _Stage:
    """One stage's per-draw constants, built before any generator is touched."""

    #: Ideal comparator thresholds, ascending (Python floats).
    thresholds: list[float]
    #: Comparator offsets, shape ``(draws, comparators)``; zero for a draw
    #: without offsets.
    offsets: np.ndarray
    #: Residue gain ``2^(m-1) * effective_gain_factor``, shape ``(draws, 1)``.
    gains: np.ndarray
    #: DAC level table, shape ``(draws, levels)``: level ``k`` of draw ``d``
    #: is ``(k - (levels - 1) / 2.0) * full_scale / 2.0``, plus
    #: ``dac_level_errors[k]`` when any draw carries level errors.
    dac: np.ndarray
    #: Smallest unsigned dtype that holds the largest code, ``levels - 1``.
    count_dtype: np.dtype
    #: Signed DAC index offset ``(levels - 1) // 2`` and the stage's weight
    #: ``2^(total_bits - 1 - cumulative)`` in the integer correction.
    half: int
    weight: int


def _stages(
    candidate: PipelineCandidate,
    full_scale: float,
    error_draws: list[tuple[StageErrorModel, ...]],
) -> list[_Stage]:
    """Validate every draw's models and build each stage's tables."""
    draws, total_bits = len(error_draws), candidate.total_bits
    stages: list[_Stage] = []
    cumulative = 0
    for c, m in enumerate(candidate.resolutions):
        levels = 2**m - 1
        cumulative += m - 1
        offsets = np.zeros((draws, levels - 1))
        for d, models in enumerate(error_draws):
            if models[c].comparator_offsets:
                if len(models[c].comparator_offsets) != levels - 1:
                    raise SpecificationError(
                        f"{m}-bit stage needs {levels - 1} offsets"
                    )
                offsets[d] = models[c].comparator_offsets
        dac = np.broadcast_to(
            (np.arange(levels) - (levels - 1) / 2.0) * full_scale / 2.0,
            (draws, levels),
        )
        if any(models[c].dac_level_errors for models in error_draws):
            level_errors = np.zeros((draws, levels))
            for d, models in enumerate(error_draws):
                if models[c].dac_level_errors:
                    if len(models[c].dac_level_errors) != levels:
                        raise SpecificationError("one DAC error per level required")
                    level_errors[d] = models[c].dac_level_errors
            dac = dac + level_errors
        gains = np.array(
            [
                2.0 ** (m - 1) * models[c].effective_gain_factor
                for models in error_draws
            ]
        ).reshape(draws, 1)
        stages.append(
            _Stage(
                thresholds=FlashSubAdc(m, full_scale).ideal_thresholds(),
                offsets=offsets,
                gains=gains,
                dac=dac,
                count_dtype=np.min_scalar_type(levels - 1),
                half=(levels - 1) // 2,
                weight=2 ** (total_bits - 1 - cumulative),
            )
        )
    return stages


def _simulate_blocks(
    candidate: PipelineCandidate,
    full_scale: float,
    error_draws: list[tuple[StageErrorModel, ...]],
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator] | None,
    sah: SampleAndHold,
    stages: list[_Stage],
) -> Iterator[tuple[int, BatchResult]]:
    """The kernel: the whole stage chain on one block of draws at a time."""
    draws, n_samples = len(error_draws), len(samples)
    n_stages = candidate.stage_count
    total_bits = candidate.total_bits
    backend_bits = total_bits - candidate.frontend_bits

    # Thermal-noise replay: the scalar walk consumes one standard normal
    # per noisy source per sample, sample-major.  Each draw's whole
    # (samples, sources) block comes from its own generator when the
    # draw's block starts — the same stream positions — and each source
    # reads its own column.
    sah_noisy = sah.noise_rms > 0.0
    sigmas = np.array(
        [[model.noise_rms for model in models] for models in error_draws]
    ).reshape(draws, n_stages)
    column = np.full((draws, n_stages), -1, dtype=int)
    sources = np.zeros(draws, dtype=int)
    for d in range(draws):
        col = 1 if sah_noisy else 0
        for c in range(n_stages):
            if sigmas[d, c] > 0.0:
                column[d, c] = col
                col += 1
        sources[d] = col

    # Sample-and-hold: vin * (1 + gain_error) + noise, like the scalar walk.
    held = samples * (1.0 + sah.gain_error)
    n = 2**backend_bits
    rows = max(1, _BLOCK_ELEMENTS // max(n_samples, 1))
    for d0 in range(0, draws, rows):
        d1 = min(d0 + rows, draws)
        noise = [
            rngs[d].standard_normal((n_samples, sources[d])).T
            if sources[d]
            else None
            for d in range(d0, d1)
        ]
        if sah_noisy:
            v = np.empty((d1 - d0, n_samples))
            for i, z in enumerate(noise):
                v[i] = held + (0.0 + sah.noise_rms * z[0])
        else:
            # The scalar walk's `+ noise` with noise == 0.0.
            v = np.broadcast_to(held + 0.0, (d1 - d0, n_samples)).copy()
        stage_codes = np.empty((d1 - d0, n_samples, n_stages), dtype=np.int64)
        acc = np.zeros((d1 - d0, n_samples), dtype=np.int64)
        for c, stage in enumerate(stages):
            # Stage input noise (consumed before the sub-ADC decision).
            for i, d in enumerate(range(d0, d1)):
                if column[d, c] >= 0:
                    v[i] += 0.0 + sigmas[d, c] * noise[i][column[d, c]]
            # Thermometer decision, one comparator at a time.
            code = np.zeros((d1 - d0, n_samples), dtype=stage.count_dtype)
            offsets = stage.offsets[d0:d1]
            for j, threshold in enumerate(stage.thresholds):
                code += (v + offsets[:, j : j + 1]) > threshold
            stage_codes[:, :, c] = code
            # MDAC residue: gain * vin - dac, per-draw gain and DAC table.
            dac = np.take_along_axis(stage.dac[d0:d1], code, axis=1)
            v = stage.gains[d0:d1] * v - dac
            # Exact integer correction; widen first, a uint8 count wraps.
            acc += (code.astype(np.int64) - stage.half) * stage.weight
        # Ideal backend quantizer, then the corrected output word.
        backend = np.clip(
            np.floor((v / full_scale + 0.5) * n), 0, n - 1
        ).astype(np.int64)
        word = 2 ** (total_bits - 1) + acc + (backend - 2 ** (backend_bits - 1))
        codes = np.clip(word, 0, 2**total_bits - 1)
        yield d0, BatchResult(stage_codes, v, backend, codes)


__all__ = ["BatchResult", "simulate_blocks", "simulate_draws"]
