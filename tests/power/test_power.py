"""Power model unit tests."""

import pytest

from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError
from repro.power import (
    DEFAULT_POWER_MODEL,
    PowerModel,
    candidate_power,
    mdac_power,
    sub_adc_power,
)
from repro.specs import AdcSpec, plan_stages
from repro.tech import CMOS025


def plan(label="4-3-2", k=13):
    cand = PipelineCandidate(tuple(int(x) for x in label.split("-")), k, 7)
    return plan_stages(AdcSpec(resolution_bits=k), cand)


class TestPowerModel:
    def test_defaults_valid(self):
        assert DEFAULT_POWER_MODEL.gm_over_id > 0

    def test_validation(self):
        with pytest.raises(SpecificationError):
            PowerModel(gm_over_id=0)
        with pytest.raises(SpecificationError):
            PowerModel(topology_current_factor=0.5)
        with pytest.raises(SpecificationError):
            PowerModel(bias_overhead_fraction=1.0)
        with pytest.raises(SpecificationError):
            PowerModel(comparator_e0=-1)


class TestMdacPower:
    def test_branch_current_is_max_of_gm_and_slew(self):
        mdac = plan().mdacs[0]
        p = mdac_power(mdac, CMOS025)
        assert p.branch_current == pytest.approx(max(p.gm_current, p.slew_current))

    def test_gm_current_formula(self):
        mdac = plan().mdacs[0]
        p = mdac_power(mdac, CMOS025)
        assert p.gm_current == pytest.approx(
            mdac.gm_required / DEFAULT_POWER_MODEL.gm_over_id
        )

    def test_total_includes_overheads(self):
        mdac = plan().mdacs[0]
        p = mdac_power(mdac, CMOS025)
        expected_current = (
            p.branch_current
            * DEFAULT_POWER_MODEL.topology_current_factor
            * (1 + DEFAULT_POWER_MODEL.bias_overhead_fraction)
        )
        assert p.total_current == pytest.approx(expected_current)
        assert p.total_power == pytest.approx(
            CMOS025.vdd * expected_current + DEFAULT_POWER_MODEL.fixed_overhead_w
        )

    def test_first_stage_dominates_at_13_bits(self):
        stage_plan = plan()
        powers = [mdac_power(m, CMOS025).total_power for m in stage_plan.mdacs]
        assert powers[0] > powers[1] > powers[2]

    def test_binding_constraint_reported(self):
        mdac = plan().mdacs[0]
        p = mdac_power(mdac, CMOS025)
        assert p.binding_constraint in ("gm", "slew")


class TestSubAdcPower:
    def test_first_stage_has_no_tracking_power(self):
        sub = plan().sub_adcs[0]
        assert sub_adc_power(sub).tracking_power == 0.0

    def test_later_stage_tracking_scales_with_bits(self):
        stage_plan = plan("4-4", 13)
        p2 = sub_adc_power(stage_plan.sub_adcs[1])
        stage_plan2 = plan("4-2-2-2", 13)
        p2_small = sub_adc_power(stage_plan2.sub_adcs[1])
        # 4-bit non-first stage: 14 comparators at 4x difficulty vs 2 at 1x.
        assert p2.tracking_power > 10 * p2_small.tracking_power

    def test_energy_grows_as_tolerance_shrinks(self):
        p4 = sub_adc_power(plan("4-4", 13).sub_adcs[0])
        p2 = sub_adc_power(plan("2-2-2-2-2-2", 13).sub_adcs[0])
        assert p4.energy_per_decision > p2.energy_per_decision

    def test_total_is_sum_of_parts(self):
        sub = plan().sub_adcs[1]
        p = sub_adc_power(sub)
        assert p.total_power == pytest.approx(
            p.comparator_power + p.tracking_power + p.fixed_power
        )


class TestCandidatePower:
    def test_stage_count_matches(self):
        spec = AdcSpec(resolution_bits=13)
        cand = PipelineCandidate((4, 3, 2), 13, 7)
        cp = candidate_power(spec, cand)
        assert len(cp.stages) == 3

    def test_total_is_sum(self):
        spec = AdcSpec(resolution_bits=13)
        cand = PipelineCandidate((4, 3, 2), 13, 7)
        cp = candidate_power(spec, cand)
        assert cp.total_power == pytest.approx(cp.mdac_power + cp.sub_adc_power)
        assert cp.total_power == pytest.approx(sum(s.total_power for s in cp.stages))

    def test_stage_powers_mw(self):
        spec = AdcSpec(resolution_bits=13)
        cand = PipelineCandidate((4, 3, 2), 13, 7)
        mw = [s.total_power * 1e3 for s in candidate_power(spec, cand).stages]
        assert len(mw) == 3
        assert all(0.1 < p < 100 for p in mw)

    def test_power_grows_with_resolution(self):
        cand10 = PipelineCandidate((3, 2), 10, 7)
        cand13 = PipelineCandidate((4, 3, 2), 13, 7)
        p10 = candidate_power(AdcSpec(resolution_bits=10), cand10).total_power
        p13 = candidate_power(AdcSpec(resolution_bits=13), cand13).total_power
        assert p13 > 2 * p10
