"""Kernel equivalence: the batch program IS the scalar walk, bit for bit.

The PR 3/PR 6 contract applied to the behavioral tier: the vectorized
batch kernel must reproduce the scalar walk kept in
``tests/behavioral/batch_reference.py`` exactly — every stage code,
residue, backend code and output word, thermal-noise streams included —
across random error-model draws, and verdicts and campaign records must
come out byte-identical with the walk swapped in.
"""

import numpy as np
import pytest

import repro.behavioral.verify
from repro.behavioral.batch import simulate_draws
from repro.behavioral.metrics import sndr_db
from repro.behavioral.pipeline import BehavioralPipeline
from repro.behavioral.signals import full_scale_sine, pick_coherent_cycles
from repro.behavioral.verify import (
    DEFAULT_MISMATCH,
    MismatchSpec,
    draw_error_models,
    verify_candidate,
)
from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig
from repro.enumeration.candidates import enumerate_candidates
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
        from repro.behavioral.nonideal import StageErrorModel

        candidate = next(
            c for c in enumerate_candidates(10) if c.stage_count > 1
        )
        with pytest.raises(SpecificationError, match="per stage"):
            simulate_draws(
                candidate, FULL_SCALE, [(StageErrorModel.ideal(),)], [0.0]
            )


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
