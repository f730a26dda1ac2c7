"""Spec translation tests: AdcSpec, noise budgeting, cap sizing, stage plans."""

import math

import pytest

from repro.constants import KT_ROOM
from repro.enumeration import enumerate_candidates
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError
from repro.specs import (
    AdcSpec,
    allocate_noise_budget,
    plan_stages,
    size_sampling_capacitor,
)
from repro.specs.caps import MATCHING_MARGIN, NOISE_PHASE_FACTOR
from repro.tech import CMOS025


def candidate(label="4-3-2", k=13):
    return PipelineCandidate(tuple(int(x) for x in label.split("-")), k, 7)


class TestAdcSpec:
    def test_defaults_match_paper(self):
        spec = AdcSpec(resolution_bits=13)
        assert spec.sample_rate_hz == 40e6
        assert spec.tech.vdd == pytest.approx(3.3)
        assert spec.tech.lmin == pytest.approx(0.25e-6)

    def test_lsb_and_quantization_noise(self):
        spec = AdcSpec(resolution_bits=10, full_scale=2.0)
        assert spec.lsb == pytest.approx(2.0 / 1024)
        assert spec.quantization_noise_power == pytest.approx(spec.lsb**2 / 12)

    def test_settling_window(self):
        spec = AdcSpec(resolution_bits=13)
        assert spec.settling_window == pytest.approx(12.5e-9 - 1e-9)

    def test_ideal_snr(self):
        assert AdcSpec(resolution_bits=13).ideal_snr_db() == pytest.approx(80.02)

    def test_validation(self):
        with pytest.raises(SpecificationError):
            AdcSpec(resolution_bits=4)
        with pytest.raises(SpecificationError):
            AdcSpec(resolution_bits=13, sample_rate_hz=-1)
        with pytest.raises(SpecificationError):
            AdcSpec(resolution_bits=13, slew_fraction=0.95)
        with pytest.raises(SpecificationError):
            AdcSpec(resolution_bits=13, non_overlap_time=13e-9)


class TestNoiseBudget:
    def test_allocations_sum_within_budget(self):
        spec = AdcSpec(resolution_bits=13)
        budget = allocate_noise_budget(spec, candidate())
        total = sum(budget.stage_allocations) + budget.backend_allocation
        assert total <= budget.total_budget * (1 + 1e-12)

    def test_geometric_ratio(self):
        spec = AdcSpec(resolution_bits=13)
        budget = allocate_noise_budget(spec, candidate(), stage_ratio=0.5)
        a = budget.stage_allocations
        assert a[1] / a[0] == pytest.approx(0.5)
        assert a[2] / a[1] == pytest.approx(0.5)

    def test_backend_reserve(self):
        spec = AdcSpec(resolution_bits=13)
        budget = allocate_noise_budget(spec, candidate(), backend_reserve=0.4)
        assert budget.backend_allocation == pytest.approx(0.4 * spec.thermal_noise_budget)

    def test_invalid_parameters(self):
        spec = AdcSpec(resolution_bits=13)
        with pytest.raises(SpecificationError):
            allocate_noise_budget(spec, candidate(), stage_ratio=0.0)
        with pytest.raises(SpecificationError):
            allocate_noise_budget(spec, candidate(), backend_reserve=1.0)


class TestCapSizing:
    def test_noise_bound_cap_formula(self):
        sizing = size_sampling_capacitor(
            CMOS025,
            stage_bits=4,
            input_accuracy_bits=13,
            cumulative_gain=1.0,
            noise_allocation=2e-9,
            full_scale=2.0,
        )
        assert sizing.binding_constraint == "noise"
        assert sizing.total == pytest.approx(NOISE_PHASE_FACTOR * KT_ROOM / 2e-9, abs=0.0)

    def test_floor_binds_at_low_resolution(self):
        sizing = size_sampling_capacitor(
            CMOS025,
            stage_bits=2,
            input_accuracy_bits=8,
            cumulative_gain=8.0,
            noise_allocation=1e-7,
            full_scale=2.0,
        )
        assert sizing.binding_constraint == "floor"
        assert sizing.total == pytest.approx(CMOS025.cpar_floor, abs=0.0)

    def test_cumulative_gain_shrinks_noise_requirement(self):
        small = size_sampling_capacitor(CMOS025, 2, 10, 8.0, 1e-9, 2.0)
        large = size_sampling_capacitor(CMOS025, 2, 10, 1.0, 1e-9, 2.0)
        assert small.noise_requirement == pytest.approx(
            large.noise_requirement / 64, abs=0.0
        )

    @pytest.mark.parametrize("stage_bits", [2, 3, 4])
    @pytest.mark.parametrize("input_accuracy_bits", [8, 13])
    def test_matching_requirement_follows_the_pelgrom_law(
        self, stage_bits, input_accuracy_bits
    ):
        # A unit capacitor of the matching requirement mismatches by
        # sigma_u = A_C / sqrt(area), exactly what the DAC may spend: the
        # MSB half's error stays within MATCHING_MARGIN of the stage LSB.
        sizing = size_sampling_capacitor(
            CMOS025, stage_bits, input_accuracy_bits, 1.0, 1e-9, 2.0
        )
        area_um2 = (
            sizing.matching_requirement / sizing.units / CMOS025.cap_density / 1e-12
        )
        assert CMOS025.cap_matching / math.sqrt(area_um2) == pytest.approx(
            MATCHING_MARGIN
            * 2.0**-input_accuracy_bits
            * 2.0
            * math.sqrt(sizing.units / 2),
            rel=1e-12,
        )

    def test_one_more_accuracy_bit_quadruples_the_matching_requirement(self):
        coarse = size_sampling_capacitor(CMOS025, 3, 12, 1.0, 1e-9, 2.0)
        fine = size_sampling_capacitor(CMOS025, 3, 13, 1.0, 1e-9, 2.0)
        assert fine.matching_requirement == pytest.approx(
            4.0 * coarse.matching_requirement, rel=1e-12, abs=0.0
        )

    def test_unit_cap_times_units_is_total(self):
        sizing = size_sampling_capacitor(CMOS025, 3, 11, 1.0, 1e-8, 2.0)
        assert sizing.unit * sizing.units == pytest.approx(sizing.total, abs=0.0)
        assert sizing.units == 4

    def test_invalid_inputs(self):
        with pytest.raises(SpecificationError):
            size_sampling_capacitor(CMOS025, 1, 13, 1.0, 1e-9, 2.0)
        with pytest.raises(SpecificationError):
            size_sampling_capacitor(CMOS025, 2, 13, 0.5, 1e-9, 2.0)
        with pytest.raises(SpecificationError):
            size_sampling_capacitor(CMOS025, 2, 13, 1.0, 0.0, 2.0)


class TestStagePlan:
    def test_plan_has_one_spec_pair_per_stage(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        assert len(plan.mdacs) == 3
        assert len(plan.sub_adcs) == 3

    def test_stage_gains_and_accuracies(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        assert [m.gain for m in plan.mdacs] == [8, 4, 2]
        assert [m.input_accuracy_bits for m in plan.mdacs] == [13, 10, 8]
        assert [m.output_accuracy_bits for m in plan.mdacs] == [10, 8, 7]

    def test_beta_reflects_gain(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        m1, m2, m3 = plan.mdacs
        assert m1.beta < m2.beta < m3.beta
        # beta ~ 1 / (1.2 * G) with the input-cap estimate.
        assert m1.beta == pytest.approx(1 / (1.2 * 8), rel=1e-6)

    def test_settling_error_is_half_lsb_with_margin(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        for mdac in plan.mdacs:
            assert mdac.settling_error == pytest.approx(
                2.0 ** -(mdac.output_accuracy_bits + 1)
            )

    def test_gm_formula_consistency(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        for mdac in plan.mdacs:
            n_tau = math.log(1 / mdac.settling_error)
            expected = n_tau * mdac.c_eff / (mdac.beta * mdac.linear_settling_time)
            assert mdac.gm_required == pytest.approx(expected)

    def test_first_stage_cap_is_noise_bound_at_13_bits(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        assert plan.mdacs[0].caps.binding_constraint == "noise"
        # Multiple pF at 13 bits.
        assert 1e-12 < plan.mdacs[0].caps.total < 20e-12

    def test_late_stage_caps_hit_floor_at_10_bits(self):
        spec = AdcSpec(resolution_bits=10)
        plan = plan_stages(spec, candidate("3-2", 10))
        assert plan.mdacs[-1].caps.binding_constraint == "floor"

    def test_sub_adc_comparator_counts(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        assert [s.comparator_count for s in plan.sub_adcs] == [14, 6, 2]

    def test_sub_adc_first_stage_flag(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        assert plan.sub_adcs[0].is_first_stage
        assert not any(s.is_first_stage for s in plan.sub_adcs[1:])

    def test_offset_tolerance_shrinks_with_stage_bits(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        tols = [s.offset_tolerance for s in plan.sub_adcs]
        assert tols[0] < tols[1] < tols[2]
        assert tols[0] == pytest.approx(2.0 / 2**5)

    def test_reuse_keys(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        keys = tuple(dict.fromkeys(m.reuse_key for m in plan.mdacs))
        assert keys == ((4, 13), (3, 10), (2, 8))

    def test_unique_blocks_across_all_13bit_candidates(self):
        # The paper synthesized "eleven MDACs" to cover all seven candidates;
        # our exact bookkeeping yields 12 distinct (m, accuracy) pairs.
        spec = AdcSpec(resolution_bits=13)
        keys = set()
        for cand in enumerate_candidates(13):
            keys.update(m.reuse_key for m in plan_stages(spec, cand).mdacs)
        assert len(keys) == 12

    def test_dc_gain_requirement_grows_with_accuracy(self):
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, candidate())
        gains = [m.dc_gain_min for m in plan.mdacs]
        assert gains[0] > gains[1] > gains[2]

    def test_budget_mismatch_rejected(self):
        spec = AdcSpec(resolution_bits=13)
        wrong = allocate_noise_budget(spec, candidate("4-4", 13))
        with pytest.raises(SpecificationError):
            plan_stages(spec, candidate(), budget=wrong)
