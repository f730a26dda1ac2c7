"""Monte-Carlo behavioral verification of an optimized topology.

Closes the loop the analytic flow leaves open: after the optimizer picks a
topology from equation-level power models, this module stresses that
topology in the time domain — per-stage error models derived from the
synthesized block requirements (:func:`repro.specs.stage.plan_stages`)
plus seeded random mismatch — and reports the simulated SNDR/ENOB the
campaign layer stores next to every analytic number.

Determinism contract: every random quantity descends from one integer
seed through a fixed :class:`numpy.random.SeedSequence` spawn tree —
``seed -> (parameter stream, per-draw noise streams)`` — and parameter
draws are consumed in a fixed order (draw-major; per stage: gain, then
comparator offsets, then DAC levels).  Replaying the same seed therefore
reproduces every draw bit for bit, which is what lets checkpointed
behavioral scenarios resume, shard and merge byte-identically.

The same determinism makes a verdict cacheable: it depends only on the
stage plan, draws, seed, mismatch and record length, never on a sizing.
:func:`cached_verdict` keeps verdicts under ``<cache_dir>/verdicts/``,
keyed by :func:`verdict_key`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.behavioral.batch import simulate_blocks
from repro.behavioral.metrics import sndr_db
from repro.behavioral.nonideal import StageErrorModel
from repro.behavioral.signals import full_scale_sine, pick_coherent_cycles
from repro.engine.persist import digest, load_result, store_result
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError
from repro.obs import metrics
from repro.specs.adc import AdcSpec
from repro.specs.stage import PlanTable, StagePlan

#: Record length for SNDR captures: long enough for a clean noise floor.
#: A verdict holds one block of draws at this length at a time (16 draws,
#: see :mod:`repro.behavioral.batch`), so its memory barely grows with draws.
SAMPLES = 2048

#: Version of :func:`verdict_key`.  Bump it with any change that moves a
#: verdict's bits (the batch kernel, the draw tree, the stimulus, the SNDR
#: read-out) or the shape of the key's payload: cached verdicts under the
#: old key then stop matching.
VERDICT_VERSION = 1

#: Subdirectory of a cache directory that holds behavioral verdicts.
VERDICT_DIRNAME = "verdicts"


@dataclass(frozen=True)
class MismatchSpec:
    """How much nonideality to inject, scaled to each block's own budget.

    Each sigma multiplies the tolerance the stage plan already computed
    for that error mechanism, so "0.25" always means "a quarter of what
    the block was specified to tolerate" regardless of resolution or
    stage split.
    """

    #: Random residue-gain error sigma, x the stage settling error eps.
    gain_error_sigma: float = 0.25
    #: Comparator offset sigma, x the sub-ADC offset tolerance FS/2^(m+1).
    offset_sigma: float = 0.25
    #: Per-level DAC error sigma, x the converter LSB.
    dac_error_sigma: float = 0.25
    #: Stage input-referred noise, x the stage's rms noise allocation.
    noise_sigma: float = 0.5
    #: Include the deterministic imperfections every real block carries:
    #: incomplete settling at the specified eps and the static gain error
    #: floor -eps/2 implied by the minimum DC gain 2/(eps*beta).
    systematic: bool = True

    @classmethod
    def ideal(cls) -> "MismatchSpec":
        """No injected errors at all — the pipeline becomes a pure quantizer."""
        return cls(
            gain_error_sigma=0.0,
            offset_sigma=0.0,
            dac_error_sigma=0.0,
            noise_sigma=0.0,
            systematic=False,
        )


DEFAULT_MISMATCH = MismatchSpec()


def draw_error_models(
    plan: StagePlan,
    draws: int,
    seed: int,
    mismatch: MismatchSpec = DEFAULT_MISMATCH,
) -> tuple[tuple[tuple[StageErrorModel, ...], ...], tuple[np.random.Generator, ...]]:
    """Sample ``draws`` per-stage error-model tuples plus their noise streams.

    The parameter stream always consumes the same count per draw (one
    gain, ``comparator_count`` offsets, ``2^m - 1`` DAC levels per stage)
    with the sigmas applied as pure scale factors, so draw d's mismatch
    realization is comparable across :class:`MismatchSpec` settings.  All
    of it comes from one ``(draws, width)`` standard-normal block, whose C
    order is that draw-major, stage-major stream.
    """
    if draws < 1:
        raise SpecificationError("draws must be >= 1")
    root = np.random.SeedSequence(seed)
    param_seq, noise_seq = root.spawn(2)
    rng = np.random.default_rng(param_seq)
    lsb = plan.spec.lsb
    widths = [
        1 + sub_adc.comparator_count + 2**mdac.stage_bits - 1
        for mdac, sub_adc in zip(plan.mdacs, plan.sub_adcs)
    ]
    z = rng.standard_normal((draws, sum(widths)))
    stages = []
    start = 0
    for mdac, sub_adc, width in zip(plan.mdacs, plan.sub_adcs, widths):
        split = start + 1 + sub_adc.comparator_count
        gain_z = z[:, start]
        offset_z = z[:, start + 1 : split]
        dac_z = z[:, split : start + width]
        start += width
        eps = mdac.settling_error
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
        stages.append(
            (
                gain_error.tolist(),
                settling,
                offsets.tolist(),
                noise_rms,
                dac_errors.tolist(),
            )
        )
    all_draws = tuple(
        tuple(
            StageErrorModel(
                gain_error=gains[d],
                settling_error=settling,
                comparator_offsets=tuple(offsets[d]),
                noise_rms=noise_rms,
                dac_level_errors=tuple(dac_errors[d]),
            )
            for gains, settling, offsets, noise_rms, dac_errors in stages
        )
        for d in range(draws)
    )
    noise_rngs = tuple(np.random.default_rng(s) for s in noise_seq.spawn(draws))
    return all_draws, noise_rngs


@dataclass(frozen=True)
class BehavioralVerdict:
    """Monte-Carlo simulation outcome for one candidate topology."""

    candidate: PipelineCandidate
    draws: int
    seed: int
    samples: int
    #: Coherent input cycle count (also the carrier's FFT bin).
    cycles: int
    #: Per-draw SNDR [dB], in draw order.
    sndr_db: tuple[float, ...]
    #: Per-draw effective number of bits.
    enob: tuple[float, ...]

    @property
    def sndr_db_mean(self) -> float:
        return sum(self.sndr_db) / len(self.sndr_db)

    @property
    def sndr_db_min(self) -> float:
        return min(self.sndr_db)

    @property
    def enob_mean(self) -> float:
        return sum(self.enob) / len(self.enob)

    @property
    def enob_min(self) -> float:
        return min(self.enob)


def verify_candidate(
    spec: AdcSpec,
    candidate: PipelineCandidate,
    *,
    draws: int,
    seed: int,
    mismatch: MismatchSpec = DEFAULT_MISMATCH,
    samples: int = SAMPLES,
    plans: PlanTable | None = None,
) -> BehavioralVerdict:
    """Simulate ``draws`` mismatch realizations of one topology.

    Drives a near-full-scale coherent sine through the behavioral
    pipeline under per-stage error models derived from the candidate's
    stage plan, and distills each draw's code record into SNDR/ENOB.
    ``plans`` is the caller's plan table, if it keeps one.  Each block of
    draws is read as it comes: only its output words' SNDRs are kept.
    """
    plan = (plans or PlanTable()).plan(spec, candidate)
    models, rngs = draw_error_models(plan, draws, seed, mismatch)
    cycles = pick_coherent_cycles(samples)
    stimulus = full_scale_sine(samples, cycles, spec.full_scale)
    sndr: list[float] = []
    for _, block in simulate_blocks(
        candidate, spec.full_scale, models, stimulus, rngs=rngs
    ):
        sndr.extend(sndr_db(codes, cycles) for codes in block.codes)
        del block  # freed before the kernel builds the next one
    return BehavioralVerdict(
        candidate=candidate,
        draws=draws,
        seed=seed,
        samples=samples,
        cycles=cycles,
        sndr_db=tuple(sndr),
        enob=tuple((s - 1.76) / 6.02 for s in sndr),
    )


def verdict_key(
    spec: AdcSpec,
    candidate: PipelineCandidate,
    *,
    draws: int,
    seed: int,
    mismatch: MismatchSpec = DEFAULT_MISMATCH,
    samples: int = SAMPLES,
    plans: PlanTable | None = None,
) -> str:
    """Cache key of the verdict :func:`verify_candidate` would return.

    The stage plan carries the spec (resolution, rate, full scale, the
    corner's technology) and the candidate; draws, seed, mismatch and
    record length are the rest of what the simulation reads.  ``plans``
    is the caller's plan table, if it keeps one: the key is the same
    either way, since equal plans encode to the same text.
    """
    return digest(
        {
            "version": VERDICT_VERSION,
            "kind": "behavioral",
            "plan": (plans or PlanTable()).plan(spec, candidate),
            "draws": draws,
            "seed": seed,
            "mismatch": mismatch,
            "samples": samples,
        }
    )


def cached_verdict(
    spec: AdcSpec,
    candidate: PipelineCandidate,
    *,
    draws: int,
    seed: int,
    cache_dir: str | Path | None,
    mismatch: MismatchSpec = DEFAULT_MISMATCH,
    samples: int = SAMPLES,
    plans: PlanTable | None = None,
) -> BehavioralVerdict:
    """The verdict of :func:`verify_candidate`, from the cache when it is there.

    A hit returns the stored verdict; a miss (no entry, or an unreadable
    one) simulates and stores the verdict.  Hits and misses count as
    ``behavioral.verdict_hits`` / ``behavioral.verdict_misses``.  Without
    a ``cache_dir`` this is :func:`verify_candidate`.  The key and the
    simulation read one plan, from ``plans`` when the caller keeps a
    table (a campaign does).
    """
    kwargs = dict(
        draws=draws,
        seed=seed,
        mismatch=mismatch,
        samples=samples,
        plans=plans or PlanTable(),
    )
    if cache_dir is None:
        return verify_candidate(spec, candidate, **kwargs)
    directory = Path(cache_dir) / VERDICT_DIRNAME
    key = verdict_key(spec, candidate, **kwargs)
    verdict = load_result(directory, key)
    if isinstance(verdict, BehavioralVerdict):
        metrics.counter("behavioral.verdict_hits")
        return verdict
    metrics.counter("behavioral.verdict_misses")
    verdict = verify_candidate(spec, candidate, **kwargs)
    store_result(directory, key, verdict)
    return verdict


__all__ = [
    "DEFAULT_MISMATCH",
    "SAMPLES",
    "VERDICT_DIRNAME",
    "VERDICT_VERSION",
    "BehavioralVerdict",
    "MismatchSpec",
    "cached_verdict",
    "draw_error_models",
    "verdict_key",
    "verify_candidate",
]
