"""Kernel equivalence: the batch program IS the scalar walk, bit for bit.

The vectorized batch kernel must reproduce the scalar walk kept in
``tests/behavioral/batch_reference.py`` exactly — every stage code,
residue, backend code and output word, thermal-noise streams and every
generator's end state included — across random error-model draws and
draw blocks, and verdicts and campaign records must come out
byte-identical with the walk swapped in.  A verdict streams the kernel's
draw blocks, so it must also equal the verdict read from the full trace,
and its memory must not grow with the draw count.
"""

import dataclasses
import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.behavioral.verify
from repro.behavioral import batch
from repro.behavioral.batch import simulate_blocks, simulate_draws
from repro.behavioral.metrics import sndr_db
from repro.behavioral.nonideal import StageErrorModel
from repro.behavioral.pipeline import BehavioralPipeline
from repro.behavioral.signals import full_scale_sine, pick_coherent_cycles
from repro.behavioral.verify import (
    DEFAULT_MISMATCH,
    MismatchSpec,
    draw_error_models,
    verify_candidate,
)
from repro.blocks.sah import SampleAndHold
from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig
from repro.enumeration.candidates import PipelineCandidate, enumerate_candidates
from repro.errors import SpecificationError
from repro.specs.adc import AdcSpec
from repro.specs.stage import plan_stages
from tests.behavioral import batch_reference

SAMPLES = 512
FULL_SCALE = 2.0

TRACE_FIELDS = ("stage_codes", "residues", "backend_codes", "codes")


def _stimulus():
    cycles = pick_coherent_cycles(SAMPLES)
    return cycles, full_scale_sine(SAMPLES, cycles, FULL_SCALE)


def _draws(spec, candidate, draws, seed, mismatch=DEFAULT_MISMATCH):
    plan = plan_stages(spec, candidate)
    return draw_error_models(plan, draws, seed, mismatch)


def _assert_same_trace(result, reference):
    """Same dtype, shape and bytes in all four fields."""
    for name in TRACE_FIELDS:
        a, b = getattr(result, name), getattr(reference, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


def _one_block(monkeypatch, simulate):
    """Feed the verifier ``simulate``'s full trace as its only block.

    Replaces the block source :func:`verify_candidate` reads; returns the
    list of candidates ``simulate`` ran for, one entry per verdict.
    """
    calls = []

    def source(*args, **kwargs):
        calls.append(args[0])
        return iter([(0, simulate(*args, **kwargs))])

    monkeypatch.setattr(repro.behavioral.verify, "simulate_blocks", source)
    return calls


def _swap_in_the_walk(monkeypatch):
    """Run every behavioral verification on the scalar walk; log its calls."""
    return _one_block(monkeypatch, batch_reference.simulate_draws)


def _verdict_bits(verdict):
    """Every field of a verdict, its floats by their bytes."""
    return (
        verdict.candidate,
        verdict.draws,
        verdict.seed,
        verdict.samples,
        verdict.cycles,
        np.array(verdict.sndr_db).tobytes(),
        np.array(verdict.enob).tobytes(),
    )


class TestTraceBitIdentity:
    @pytest.mark.parametrize("resolution", (10, 12))
    @pytest.mark.parametrize("seed", (1, 17))
    def test_batch_equals_legacy_with_noise(self, resolution, seed):
        spec = AdcSpec(resolution_bits=resolution)
        _, stimulus = _stimulus()
        for candidate in list(enumerate_candidates(resolution))[:2]:
            models, rngs_a = _draws(spec, candidate, 6, seed)
            _, rngs_b = _draws(spec, candidate, 6, seed)
            batch = simulate_draws(
                candidate, FULL_SCALE, models, stimulus, rngs=rngs_a
            )
            legacy = batch_reference.simulate_draws(
                candidate, FULL_SCALE, models, stimulus, rngs=rngs_b
            )
            for name in TRACE_FIELDS:
                a, b = getattr(batch, name), getattr(legacy, name)
                assert a.dtype == b.dtype, name
                assert np.array_equal(a, b), (candidate.label, name)

    def test_batch_equals_legacy_noiseless(self):
        # No generators at all: the pure-arithmetic paths must also agree.
        spec = AdcSpec(resolution_bits=11)
        candidate = next(iter(enumerate_candidates(11)))
        _, stimulus = _stimulus()
        mismatch = MismatchSpec(noise_sigma=0.0)
        models, _ = _draws(spec, candidate, 4, 5, mismatch)
        batch = simulate_draws(candidate, FULL_SCALE, models, stimulus)
        legacy = batch_reference.simulate_draws(
            candidate, FULL_SCALE, models, stimulus
        )
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(batch, name), getattr(legacy, name)), name

    def test_legacy_kernel_matches_the_pipeline_walk(self):
        # The scalar walk is only a *reference* if it is literally the
        # existing scalar pipeline — pin it against convert_array.
        spec = AdcSpec(resolution_bits=10)
        candidate = next(iter(enumerate_candidates(10)))
        _, stimulus = _stimulus()
        models, rngs = _draws(spec, candidate, 3, 9)
        legacy = batch_reference.simulate_draws(
            candidate, FULL_SCALE, models, stimulus, rngs=rngs
        )
        _, fresh_rngs = _draws(spec, candidate, 3, 9)
        for d, stage_errors in enumerate(models):
            pipeline = BehavioralPipeline(
                candidate, FULL_SCALE, stage_errors=stage_errors
            )
            codes = pipeline.convert_array(stimulus, fresh_rngs[d])
            assert np.array_equal(codes, legacy.codes[d])

    def test_metrics_agree_across_kernels(self):
        spec = AdcSpec(resolution_bits=10)
        candidate = next(iter(enumerate_candidates(10)))
        cycles, stimulus = _stimulus()
        models, rngs_a = _draws(spec, candidate, 4, 2)
        _, rngs_b = _draws(spec, candidate, 4, 2)
        batch = simulate_draws(
            candidate, FULL_SCALE, models, stimulus, rngs=rngs_a
        )
        legacy = batch_reference.simulate_draws(
            candidate, FULL_SCALE, models, stimulus, rngs=rngs_b
        )
        for d in range(4):
            assert sndr_db(batch.codes[d], cycles) == sndr_db(
                legacy.codes[d], cycles
            )

    def test_verify_candidate_verdicts_identical(self, monkeypatch):
        spec = AdcSpec(resolution_bits=10)
        candidate = next(iter(enumerate_candidates(10)))
        batch = verify_candidate(spec, candidate, draws=4, seed=11)
        calls = _swap_in_the_walk(monkeypatch)
        legacy = verify_candidate(spec, candidate, draws=4, seed=11)
        assert calls == [candidate]  # the walk ran for this one verdict
        assert batch == legacy


def _noise_without_rngs():
    spec = AdcSpec(resolution_bits=10)
    candidate = next(iter(enumerate_candidates(10)))
    models, _ = _draws(spec, candidate, 2, 1)
    return candidate, models, [0.0, 0.1], None


def _one_model_for_several_stages():
    candidate = next(
        c for c in enumerate_candidates(10) if c.stage_count > 1
    )
    return candidate, [(StageErrorModel.ideal(),)], [0.0], None


def _mis_sized(field):
    """A mis-sized tuple in the last draw's last stage."""
    spec = AdcSpec(resolution_bits=11)
    candidate = next(c for c in enumerate_candidates(11) if c.label == "3-2-2")
    models, rngs = _draws(spec, candidate, 5, 4)
    models = [list(draw) for draw in models]
    last = models[-1][-1]
    models[-1][-1] = dataclasses.replace(last, **{field: getattr(last, field)[1:]})
    return candidate, models, _stimulus()[1], rngs


REFUSED_CALLS = (
    (_noise_without_rngs, "rngs"),
    (_one_model_for_several_stages, "per stage"),
    (functools.partial(_mis_sized, "comparator_offsets"), "offsets"),
    (functools.partial(_mis_sized, "dac_level_errors"), "DAC error"),
)


class TestKernelValidation:
    def test_noise_without_rngs_is_refused(self):
        candidate, models, stimulus, _ = _noise_without_rngs()
        with pytest.raises(SpecificationError, match="rngs"):
            simulate_draws(candidate, FULL_SCALE, models, stimulus)

    def test_wrong_model_count_is_refused(self):
        candidate, models, stimulus, _ = _one_model_for_several_stages()
        with pytest.raises(SpecificationError, match="per stage"):
            simulate_draws(candidate, FULL_SCALE, models, stimulus)

    @pytest.mark.parametrize(
        "field, message",
        (("comparator_offsets", "offsets"), ("dac_level_errors", "DAC error")),
    )
    def test_refused_call_consumes_no_randomness(self, field, message):
        # A mis-sized tuple in the last draw's last stage is refused before
        # any generator is touched: the caller's streams stay where they were.
        candidate, models, stimulus, rngs = _mis_sized(field)
        before = _states(rngs)
        with pytest.raises(SpecificationError, match=message):
            simulate_draws(candidate, FULL_SCALE, models, stimulus, rngs=rngs)
        assert _states(rngs) == before

    @pytest.mark.parametrize(
        "case, message",
        REFUSED_CALLS,
        ids=("noise_without_rngs", "model_count", "offsets", "dac_errors"),
    )
    def test_simulate_blocks_refuses_at_the_call(self, case, message):
        # The block generator refuses when called, not when first iterated,
        # and leaves every generator it was handed untouched.
        candidate, models, stimulus, rngs = case()
        before = _states(rngs or ())
        with pytest.raises(SpecificationError, match=message):
            simulate_blocks(candidate, FULL_SCALE, models, stimulus, rngs=rngs)
        assert _states(rngs or ()) == before


def _random_models(rng, candidate, draws, p_offsets, p_dac, p_noise):
    """Per-draw mixed models: each error mechanism present or not, per stage."""
    all_draws = []
    for _ in range(draws):
        models = []
        for m in candidate.resolutions:
            tolerance = FULL_SCALE / 2 ** (m + 1)
            offsets = dac_errors = ()
            if rng.random() < p_offsets:
                sigma = tolerance * rng.uniform(0.05, 1.2)
                offsets = tuple(rng.normal(0.0, sigma, 2**m - 2).tolist())
            if rng.random() < p_dac:
                sigma = rng.uniform(1e-4, 5e-3)
                dac_errors = tuple(rng.normal(0.0, sigma, 2**m - 1).tolist())
            noise_rms = rng.uniform(1e-4, 1e-2) if rng.random() < p_noise else 0.0
            models.append(
                StageErrorModel(
                    gain_error=float(rng.normal(0.0, 2e-3)),
                    settling_error=float(rng.uniform(0.0, 1e-3)),
                    comparator_offsets=offsets,
                    noise_rms=noise_rms,
                    dac_level_errors=dac_errors,
                )
            )
        all_draws.append(tuple(models))
    return all_draws


PROBABILITIES = st.sampled_from((0.0, 0.5, 1.0))


class TestDrawBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        resolutions=st.lists(st.integers(2, 4), min_size=1, max_size=4),
        backend_bits=st.integers(1, 3),
        draws=st.integers(1, 40),
        samples=st.integers(64, 256),
        block_rows=st.integers(1, 8),
        spare=st.integers(0, 63),
        seed=st.integers(0, 2**32 - 1),
        p_offsets=PROBABILITIES,
        p_dac=PROBABILITIES,
        p_noise=PROBABILITIES,
        sah_gain=st.sampled_from((0.0, 3e-3, -1e-3)),
        sah_noise=st.sampled_from((0.0, 2e-3)),
    )
    def test_blocks_equal_the_walk(
        self,
        resolutions,
        backend_bits,
        draws,
        samples,
        block_rows,
        spare,
        seed,
        p_offsets,
        p_dac,
        p_noise,
        sah_gain,
        sah_noise,
    ):
        frontend = sum(m - 1 for m in resolutions)
        candidate = PipelineCandidate(
            tuple(resolutions), frontend + backend_bits, backend_bits
        )
        rng = np.random.default_rng(seed)
        models = _random_models(rng, candidate, draws, p_offsets, p_dac, p_noise)
        stimulus = rng.uniform(-0.55 * FULL_SCALE, 0.55 * FULL_SCALE, samples)
        sah = SampleAndHold(gain_error=sah_gain, noise_rms=sah_noise)
        rngs = [np.random.default_rng([seed, d]) for d in range(draws)]
        ref_rngs = [np.random.default_rng([seed, d]) for d in range(draws)]
        # Several blocks of `block_rows` draws, the last one often partial.
        elements = block_rows * samples + spare
        with mock.patch.object(batch, "_BLOCK_ELEMENTS", elements):
            result = simulate_draws(
                candidate, FULL_SCALE, models, stimulus, rngs=rngs, sah=sah
            )
        reference = batch_reference.simulate_draws(
            candidate, FULL_SCALE, models, stimulus, rngs=ref_rngs, sah=sah
        )
        _assert_same_trace(result, reference)
        assert _states(rngs) == _states(ref_rngs)

    def test_default_block_size_with_a_partial_block(self):
        # 17 draws x 2048 samples: one full 16-draw block and one draw.
        spec = AdcSpec(resolution_bits=10)
        candidate = next(c for c in enumerate_candidates(10) if c.label == "3-2")
        samples = repro.behavioral.verify.SAMPLES
        assert batch._BLOCK_ELEMENTS // samples == 16
        stimulus = full_scale_sine(
            samples, pick_coherent_cycles(samples), spec.full_scale
        )
        models, rngs = _draws(spec, candidate, 17, 23)
        _, ref_rngs = _draws(spec, candidate, 17, 23)
        result = simulate_draws(
            candidate, spec.full_scale, models, stimulus, rngs=rngs
        )
        reference = batch_reference.simulate_draws(
            candidate, spec.full_scale, models, stimulus, rngs=ref_rngs
        )
        _assert_same_trace(result, reference)
        assert _states(rngs) == _states(ref_rngs)


#: Draw counts around the default 16-row block: one partial block, one
#: draw short of a block, exactly one, one over, and two and a draw.
STREAMED_DRAWS = (1, 15, 16, 17, 33)


@functools.cache
def _walk_verdict(draws):
    """The 10-bit 3-2 verdict at ``draws`` draws, simulated by the walk."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _swap_in_the_walk(patch)
        verdict = verify_candidate(
            AdcSpec(resolution_bits=10), _streamed_candidate(), draws=draws, seed=29
        )
    assert len(calls) == 1  # the walk ran for this one verdict
    return verdict


def _streamed_candidate():
    return next(c for c in enumerate_candidates(10) if c.label == "3-2")


class TestStreamedVerdict:
    @pytest.mark.parametrize("draws", STREAMED_DRAWS)
    @pytest.mark.parametrize("rows", (None, 7))
    def test_verdict_equals_full_trace_and_walk(self, monkeypatch, draws, rows):
        # rows=None keeps the default 16-row block at 2048 samples; rows=7
        # shrinks _BLOCK_ELEMENTS so every count above ends on a partial block.
        spec = AdcSpec(resolution_bits=10)
        candidate = _streamed_candidate()
        samples = repro.behavioral.verify.SAMPLES
        if rows is None:
            assert batch._BLOCK_ELEMENTS // samples == 16
        else:
            monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", rows * samples + 100)
        streamed = verify_candidate(spec, candidate, draws=draws, seed=29)
        walk = _walk_verdict(draws)
        calls = _one_block(monkeypatch, simulate_draws)
        full = verify_candidate(spec, candidate, draws=draws, seed=29)
        assert calls == [candidate]  # the full trace ran for this verdict
        assert _verdict_bits(streamed) == _verdict_bits(full)
        assert _verdict_bits(streamed) == _verdict_bits(walk)

    def test_blocks_cover_the_draws_in_order(self):
        spec = AdcSpec(resolution_bits=10)
        candidate = _streamed_candidate()
        samples = repro.behavioral.verify.SAMPLES
        stimulus = full_scale_sine(
            samples, pick_coherent_cycles(samples), spec.full_scale
        )
        models, rngs = _draws(spec, candidate, 33, 31)
        _, ref_rngs = _draws(spec, candidate, 33, 31)
        blocks = list(
            simulate_blocks(candidate, spec.full_scale, models, stimulus, rngs=rngs)
        )
        assert [(d0, len(block.codes)) for d0, block in blocks] == [
            (0, 16), (16, 16), (32, 1)
        ]
        reference = simulate_draws(
            candidate, spec.full_scale, models, stimulus, rngs=ref_rngs
        )
        for name in TRACE_FIELDS:
            parts = [getattr(block, name) for _, block in blocks]
            assert all(part.flags.c_contiguous for part in parts), name
            joined = np.concatenate(parts)
            assert joined.dtype == getattr(reference, name).dtype, name
            assert joined.tobytes() == getattr(reference, name).tobytes(), name
        assert _states(rngs) == _states(ref_rngs)

    def test_verdict_memory_does_not_grow_with_draws(self):
        # The campaign's 13-bit 3-2-2-2-2 plan at 2048 samples: a verdict
        # holding every draw's trace grows by about 123 MiB from 64 to 1024
        # draws; one that streams 16-draw blocks grows by about 3 MiB (the
        # error models and one generator per draw).
        spec = AdcSpec(resolution_bits=13)
        candidate = next(
            c for c in enumerate_candidates(13) if c.label == "3-2-2-2-2"
        )
        verify_candidate(spec, candidate, draws=2, seed=3)  # warm caches

        def peak(draws):
            tracemalloc.start()
            try:
                verify_candidate(spec, candidate, draws=draws, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak(1024) - peak(64)
        assert growth < 8 * 2**20, f"{growth / 2**20:.1f} MiB"


class TestCampaignRecordsAcrossKernels:
    def test_stores_byte_identical_on_the_walk(self, tmp_path, monkeypatch):
        grid = CampaignGrid(
            resolutions=(10, 11), modes=("analytic", "behavioral")
        )
        config = FlowConfig(behavioral_draws=4)
        run_campaign(grid, config=config, store_dir=tmp_path / "batch")
        calls = _swap_in_the_walk(monkeypatch)
        run_campaign(grid, config=config, store_dir=tmp_path / "walk")
        assert len(calls) == 2  # one walk per behavioral scenario
        for name in ("results.jsonl", "report.txt", "manifest.json"):
            assert (tmp_path / "batch" / name).read_bytes() == (
                tmp_path / "walk" / name
            ).read_bytes(), name
