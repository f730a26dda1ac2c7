"""Behavioral pipeline tests: correction, conversion quality, error models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavioral import (
    BehavioralPipeline,
    StageErrorModel,
    combine_codes,
    coherent_sine,
    enob,
    sfdr_db,
    sndr_db,
)
from repro.behavioral.signals import full_scale_sine
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError

CAND_432 = PipelineCandidate((4, 3, 2), 13, 7)
CAND_22 = PipelineCandidate((2, 2), 9, 7)


class TestCombineCodes:
    def test_zero_input_maps_to_midscale(self):
        # All-middle codes + mid backend = 2^(K-1).
        word = combine_codes([7, 3, 1], [4, 3, 2], 64, 7, 13)
        assert word == 2**12

    def test_code_range_clipping(self):
        low = combine_codes([0, 0, 0], [4, 3, 2], 0, 7, 13)
        high = combine_codes([14, 6, 2], [4, 3, 2], 127, 7, 13)
        assert low == 0
        assert high == 2**13 - 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SpecificationError):
            combine_codes([1], [4, 3], 0, 7, 13)

    def test_wrong_backend_bits_rejected(self):
        with pytest.raises(SpecificationError):
            combine_codes([7, 3, 1], [4, 3, 2], 0, 6, 13)

    def test_out_of_range_code_rejected(self):
        with pytest.raises(SpecificationError):
            combine_codes([15, 3, 1], [4, 3, 2], 0, 7, 13)


class TestIdealConversion:
    def test_ideal_pipeline_matches_ideal_quantizer(self):
        pipeline = BehavioralPipeline(CAND_432)
        for vin in np.linspace(-0.97, 0.97, 57):
            code = pipeline.convert(float(vin))
            ideal = int(np.floor((vin / 2.0 + 0.5) * 2**13))
            assert abs(code - ideal) <= 1, vin

    def test_monotone_transfer(self):
        pipeline = BehavioralPipeline(CAND_22)
        codes = [pipeline.convert(float(v)) for v in np.linspace(-0.99, 0.99, 400)]
        assert all(a <= b for a, b in zip(codes, codes[1:]))

    def test_ideal_enob_near_resolution(self):
        pipeline = BehavioralPipeline(CAND_432)
        signal = full_scale_sine(2048, 479, 2.0)
        codes = pipeline.convert_array(signal)
        assert enob(codes, 479) > 12.7

    @settings(max_examples=30, deadline=None)
    @given(vin=st.floats(min_value=-0.95, max_value=0.95))
    def test_every_13bit_candidate_agrees_on_ideal_codes(self, vin):
        from repro.enumeration import enumerate_candidates

        codes = set()
        for cand in enumerate_candidates(13):
            codes.add(BehavioralPipeline(cand).convert(vin))
        assert max(codes) - min(codes) <= 1


class TestRedundancy:
    def test_comparator_offsets_within_margin_are_harmless(self):
        rng = np.random.default_rng(5)
        errors = []
        for m in CAND_432.resolutions:
            tol = 2.0 / 2 ** (m + 1)
            offsets = tuple(rng.uniform(-0.7 * tol, 0.7 * tol, 2**m - 2))
            errors.append(StageErrorModel(comparator_offsets=offsets))
        pipeline = BehavioralPipeline(CAND_432, stage_errors=tuple(errors))
        signal = full_scale_sine(2048, 479, 2.0)
        assert enob(pipeline.convert_array(signal), 479) > 12.5

    def test_oversized_offsets_do_hurt(self):
        # Offsets far beyond the redundancy margin must degrade ENOB.
        errors = []
        for m in CAND_432.resolutions:
            tol = 2.0 / 2 ** (m + 1)
            offsets = tuple([3.0 * tol] * (2**m - 2))
            errors.append(StageErrorModel(comparator_offsets=offsets))
        pipeline = BehavioralPipeline(CAND_432, stage_errors=tuple(errors))
        signal = full_scale_sine(2048, 479, 2.0)
        assert enob(pipeline.convert_array(signal), 479) < 12.0

    def test_uniform_gain_error_cancels_in_correction(self):
        # Instructive pipeline property: a *uniform* interstage gain error
        # cancels in the digital reconstruction (the DAC term added back in
        # the combiner equals the one subtracted in the MDAC), leaving a
        # harmonic-free 1% amplitude compression.  ENOB stays near ideal.
        errors = (StageErrorModel(gain_error=-0.01),) + tuple(
            StageErrorModel.ideal() for _ in range(2)
        )
        pipeline = BehavioralPipeline(CAND_432, stage_errors=errors)
        signal = full_scale_sine(2048, 479, 2.0)
        assert enob(pipeline.convert_array(signal), 479) > 12.5

    def test_dac_level_errors_do_degrade_enob(self):
        # Capacitor-mismatch-style DAC errors are code-dependent and do NOT
        # cancel: they are the mismatch mechanism the matching floor in
        # repro.specs.caps guards against.
        rng = np.random.default_rng(3)
        dac_err = tuple(rng.normal(0.0, 2.0e-3, 2**4 - 1))  # 2 mV rms, stage 1
        errors = (StageErrorModel(dac_level_errors=dac_err),) + tuple(
            StageErrorModel.ideal() for _ in range(2)
        )
        pipeline = BehavioralPipeline(CAND_432, stage_errors=errors)
        signal = full_scale_sine(2048, 479, 2.0)
        assert enob(pipeline.convert_array(signal), 479) < 12.0

    def test_settling_error_at_spec_is_tolerable(self):
        # The spec budgets eps = 2^-(out_acc+1) per stage; at that level the
        # converter should stay within ~1 bit of ideal.
        errors = tuple(
            StageErrorModel(settling_error=2.0 ** -(CAND_432.output_accuracy_bits(i) + 1))
            for i in range(3)
        )
        pipeline = BehavioralPipeline(CAND_432, stage_errors=errors)
        signal = full_scale_sine(2048, 479, 2.0)
        assert enob(pipeline.convert_array(signal), 479) > 11.5


class TestMetrics:
    def test_sndr_of_quantized_sine(self):
        # Quantizing an ideal sine to 10 bits gives SNDR ~ 6.02*10 + 1.76.
        signal = coherent_sine(4096, 101, amplitude=0.499, offset=0.5)
        codes = np.floor(signal * 1024).astype(int)
        sndr = sndr_db(codes, 101)
        assert sndr == pytest.approx(6.02 * 10 + 1.76, abs=1.5)

    def test_sfdr_detects_distortion(self):
        t = np.arange(4096)
        clean = np.sin(2 * np.pi * 101 * t / 4096)
        distorted = clean + 0.01 * np.sin(2 * np.pi * 303 * t / 4096)
        codes = np.floor((distorted / 2 + 0.5) * 4096).astype(int)
        assert sfdr_db(codes, 101) == pytest.approx(-20 * np.log10(0.01), abs=1.0)

    def test_sndr_gains_6db_per_bit(self):
        signal = coherent_sine(4096, 101, amplitude=0.499, offset=0.5)
        coarse = sndr_db(np.floor(signal * 2**8).astype(int), 101)
        fine = sndr_db(np.floor(signal * 2**12).astype(int), 101)
        assert fine - coarse == pytest.approx(4 * 6.02, abs=1.0)

    def test_dac_level_error_raises_spurs(self):
        # A stage-1 DAC level error is code-dependent: it folds into
        # harmonics, so SFDR drops well below the ideal converter's.
        signal = full_scale_sine(2048, 479, 2.0)
        ideal = BehavioralPipeline(CAND_22).convert_array(signal)
        dac_err = (0.0, 0.012, 0.0)  # 12 mV error on the middle DAC level
        errors = (StageErrorModel(dac_level_errors=dac_err), StageErrorModel.ideal())
        errored = BehavioralPipeline(CAND_22, stage_errors=errors).convert_array(signal)
        assert sfdr_db(errored, 479) < sfdr_db(ideal, 479) - 10.0

    def test_metrics_reject_out_of_range_bin(self):
        codes = np.floor(coherent_sine(1024, 101, amplitude=0.499, offset=0.5) * 1024)
        for metric in (sndr_db, sfdr_db):
            for bad_bin in (0, 513):
                with pytest.raises(SpecificationError, match="out of range"):
                    metric(codes, bad_bin)

    def test_signals_validation(self):
        with pytest.raises(SpecificationError):
            coherent_sine(1024, 512, 1.0)  # not < n/2
        with pytest.raises(SpecificationError):
            coherent_sine(1024, 4, 1.0)  # not coprime


class TestValidation:
    def test_wrong_error_count_rejected(self):
        with pytest.raises(SpecificationError):
            BehavioralPipeline(CAND_432, stage_errors=(StageErrorModel.ideal(),))

    def test_wrong_offset_count_rejected(self):
        from repro.behavioral.pipeline import PipelineStage

        with pytest.raises(SpecificationError):
            PipelineStage(3, 2.0, StageErrorModel(comparator_offsets=(0.0,)))
