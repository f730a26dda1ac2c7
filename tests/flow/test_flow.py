"""Flow tests: topology optimization, block cache, designer rules, experiments."""

import pytest

from repro.enumeration.candidates import PipelineCandidate, enumerate_candidates
from repro.errors import SpecificationError
from repro.experiments import (
    fig1_stage_powers,
    fig2_total_power,
    fig3_designer_rules,
    format_fig1,
    format_fig2,
    format_fig3,
)
from repro.flow import BlockCache, extract_rules, optimize_topology
from repro.specs import AdcSpec, plan_stages
from repro.synth.evaluator import EvalResult
from repro.synth.result import SynthesisResult
from repro.tech import CMOS025


class TestTopologyAnalytic:
    def test_best_matches_paper_at_13_bits(self):
        result = optimize_topology(AdcSpec(resolution_bits=13))
        assert result.best.label == "4-3-2"

    def test_evaluations_sorted_ascending(self):
        result = optimize_topology(AdcSpec(resolution_bits=12))
        totals = [e.total_power for e in result.evaluations]
        assert totals == sorted(totals)

    def test_power_table_shape(self):
        result = optimize_topology(AdcSpec(resolution_bits=11))
        table = result.power_table()
        assert len(table) == 4
        assert all(isinstance(label, str) and mw > 0 for label, mw in table)

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecificationError):
            optimize_topology(AdcSpec(resolution_bits=13), mode="magic")

    def test_candidate_subset(self):
        cands = [PipelineCandidate((4, 3, 2), 13, 7), PipelineCandidate((4, 4), 13, 7)]
        result = optimize_topology(AdcSpec(resolution_bits=13), candidates=cands)
        assert len(result.evaluations) == 2
        assert result.best.label == "4-3-2"


class TestBlockCache:
    def test_cache_hit_on_identical_spec(self):
        cache = BlockCache(CMOS025, budget=120, retarget_budget=40,
                           verify_transient=False)
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, PipelineCandidate((4, 2, 2, 2), 13, 7))
        first = cache.get(plan.mdacs[3])
        again = cache.get(plan.mdacs[3])
        assert first is again
        assert cache.cache_hits == 1
        assert cache.cold_runs == 1

    def test_second_spec_is_retargeted(self):
        cache = BlockCache(CMOS025, budget=120, retarget_budget=40,
                           verify_transient=False)
        spec = AdcSpec(resolution_bits=13)
        plan = plan_stages(spec, PipelineCandidate((4, 2, 2, 2), 13, 7))
        cache.get(plan.mdacs[3])
        second = cache.get(plan.mdacs[2])
        assert second.retargeted
        assert cache.retargeted_runs == 1
        assert cache.unique_blocks == 2


def _block(spec, power, feasible):
    """A sized block with the given power and verdict, searched by nobody."""
    final = EvalResult(
        sizing=None,
        power=power,
        dc_gain=1e4,
        loop_unity_hz=None,
        phase_margin=None,
        saturation_margin=0.1,
        settling_error=None,
        dc_ok=True,
        violations={"settling": -0.5 if feasible else 0.5},
    )
    return SynthesisResult(
        spec=spec,
        final=final,
        history=[],
        equation_evals=0,
        transient_evals=1,
        retargeted=False,
    )


class TestSynthesisRanking:
    def test_cheapest_feasible_candidate_ranks_above_a_cheaper_infeasible_one(self):
        spec = AdcSpec(resolution_bits=10)
        plans = {c.label: plan_stages(spec, c) for c in enumerate_candidates(10)}
        # The one-stage '4' gets a cheap block that misses its spec; every
        # other block meets its spec at a higher power.
        cheap = plans["4"].mdacs[0].reuse_key
        cache = BlockCache(CMOS025)
        for plan in plans.values():
            for mdac in plan.mdacs:
                if mdac.reuse_key == cheap:
                    cache.results[cheap] = _block(mdac, 0.1e-3, feasible=False)
                else:
                    cache.results.setdefault(
                        mdac.reuse_key, _block(mdac, 1e-3, feasible=True)
                    )
        result = optimize_topology(spec, mode="synthesis", cache=cache)
        assert cache.synthesis_runs == 0
        by_power = min(result.evaluations, key=lambda e: e.total_power)
        assert by_power.label == "4" and not by_power.all_feasible
        feasible = [e for e in result.evaluations if e.all_feasible]
        assert result.best is min(feasible, key=lambda e: e.total_power)
        verdicts = [e.all_feasible for e in result.evaluations]
        assert verdicts == sorted(verdicts, reverse=True)
        for group in (True, False):
            powers = [e.total_power for e in result.evaluations if e.all_feasible is group]
            assert powers == sorted(powers)

    def test_a_winner_is_named_when_no_candidate_is_feasible(self):
        spec = AdcSpec(resolution_bits=10)
        cache = BlockCache(CMOS025)
        for cand in enumerate_candidates(10):
            for mdac in plan_stages(spec, cand).mdacs:
                power = 1e-3 * mdac.stage_bits
                cache.results.setdefault(mdac.reuse_key, _block(mdac, power, False))
        result = optimize_topology(spec, mode="synthesis", cache=cache)
        assert not any(e.all_feasible for e in result.evaluations)
        assert result.best is min(result.evaluations, key=lambda e: e.total_power)


class TestDesignerRules:
    def test_rules_cover_sweep(self):
        rules, winners, last2 = extract_rules([10, 11, 12, 13])
        covered = set()
        for rule in rules:
            covered.update(range(rule.k_min, rule.k_max + 1))
        assert covered == {10, 11, 12, 13}
        assert last2

    def test_rule_string(self):
        rules, _, _ = extract_rules([10, 11])
        assert all("first stage" in str(r) for r in rules)

    def test_non_contiguous_resolutions(self):
        # Used to raise KeyError: band compression iterated every integer
        # between k_min and k_max instead of the resolutions actually swept.
        rules, winners, _ = extract_rules([9, 11, 13])
        assert set(winners) == {9, 11, 13}
        labels_in_rules = [w for rule in rules for w in rule.winners]
        # Winner labels come only from swept resolutions, in sweep order.
        assert labels_in_rules == [winners[k] for k in (9, 11, 13)]
        assert len(labels_in_rules) == 3
        # Band boundaries land on swept resolutions, never interpolated ones.
        for rule in rules:
            assert rule.k_min in {9, 11, 13}
            assert rule.k_max in {9, 11, 13}

    def test_first_stage_bits_from_candidate_not_label(self):
        rules, winners, _ = extract_rules([13])
        assert rules[0].first_stage_bits == 4  # 4-3-2 wins at 13 bits
        assert rules[0].winners == (winners[13],)

    def test_unsorted_input_handled(self):
        rules_sorted, winners_sorted, _ = extract_rules([10, 11, 12])
        rules_shuffled, winners_shuffled, _ = extract_rules([12, 10, 11])
        assert winners_sorted == winners_shuffled
        assert [str(r) for r in rules_sorted] == [str(r) for r in rules_shuffled]

    def test_parallel_sweep_matches_serial(self):
        from repro.engine.config import FlowConfig

        serial = extract_rules([10, 11, 12, 13])
        parallel = extract_rules(
            [10, 11, 12, 13], config=FlowConfig(backend="process", max_workers=2)
        )
        assert serial[1] == parallel[1]
        assert [str(r) for r in serial[0]] == [str(r) for r in parallel[0]]
        assert serial[2] == parallel[2]


class TestExperiments:
    def test_fig1_analytic_series(self):
        result = fig1_stage_powers()
        assert set(result.series) == {
            "4-4", "4-3-2", "4-2-2-2", "3-3-3", "3-3-2-2", "3-2-2-2-2", "2-2-2-2-2-2",
        }
        assert len(result.series["2-2-2-2-2-2"]) == 6
        assert "stage-1 spread" in format_fig1(result)

    def test_fig2_matches_paper(self):
        result = fig2_total_power()
        assert result.matches_paper
        assert "winner 4-3-2" in format_fig2(result)

    def test_fig3_bands(self):
        result = fig3_designer_rules([10, 11, 12, 13])
        assert result.winners[13] == "4-3-2"
        assert result.last_stage_always_2bit
        assert "designer rules" in format_fig3(result).lower()


class TestCli:
    def test_cli_explore(self, capsys):
        from repro.cli import main

        assert main(["explore", "--bits", "10"]) == 0
        out = capsys.readouterr().out
        assert "3-2" in out and "optimum" in out

    def test_cli_fig2(self, capsys):
        from repro.cli import main

        assert main(["fig2"]) == 0
        assert "Fig. 2" in capsys.readouterr().out
