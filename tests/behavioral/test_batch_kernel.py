"""Kernel equivalence: the batch program IS the scalar walk, bit for bit.

The vectorized batch kernel must reproduce the scalar walk kept in
``tests/behavioral/batch_reference.py`` exactly — every stage code,
residue, backend code and output word, thermal-noise streams and every
generator's end state included — across random error-model draws and
draw blocks, and verdicts and campaign records must come out
byte-identical with the walk swapped in.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.behavioral.verify
from repro.behavioral import batch
from repro.behavioral.batch import simulate_draws
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


def _swap_in_the_walk(monkeypatch):
    """Run every behavioral verification on the scalar walk; log its calls."""
    calls = []

    def walk(*args, **kwargs):
        calls.append(args[0])
        return batch_reference.simulate_draws(*args, **kwargs)

    monkeypatch.setattr(repro.behavioral.verify, "simulate_draws", walk)
    return calls


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
        _swap_in_the_walk(monkeypatch)
        legacy = verify_candidate(spec, candidate, draws=4, seed=11)
        assert batch == legacy


class TestKernelValidation:
    def test_noise_without_rngs_is_refused(self):
        spec = AdcSpec(resolution_bits=10)
        candidate = next(iter(enumerate_candidates(10)))
        models, _ = _draws(spec, candidate, 2, 1)
        with pytest.raises(SpecificationError, match="rngs"):
            simulate_draws(candidate, FULL_SCALE, models, [0.0, 0.1])

    def test_wrong_model_count_is_refused(self):
        candidate = next(
            c for c in enumerate_candidates(10) if c.stage_count > 1
        )
        with pytest.raises(SpecificationError, match="per stage"):
            simulate_draws(
                candidate, FULL_SCALE, [(StageErrorModel.ideal(),)], [0.0]
            )

    @pytest.mark.parametrize(
        "field, message",
        (("comparator_offsets", "offsets"), ("dac_level_errors", "DAC error")),
    )
    def test_refused_call_consumes_no_randomness(self, field, message):
        # A mis-sized tuple in the last draw's last stage is refused before
        # any generator is touched: the caller's streams stay where they were.
        spec = AdcSpec(resolution_bits=11)
        candidate = next(c for c in enumerate_candidates(11) if c.label == "3-2-2")
        models, rngs = _draws(spec, candidate, 5, 4)
        models = [list(draw) for draw in models]
        last = models[-1][-1]
        models[-1][-1] = dataclasses.replace(last, **{field: getattr(last, field)[1:]})
        before = _states(rngs)
        _, stimulus = _stimulus()
        with pytest.raises(SpecificationError, match=message):
            simulate_draws(candidate, FULL_SCALE, models, stimulus, rngs=rngs)
        assert _states(rngs) == before


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
