"""Campaign runner: cross-scenario reuse, ledger chaining, persistence."""

from repro.campaign import CampaignGrid, SynthesisLedger, run_campaign
from repro.engine.config import FlowConfig
from repro.flow.topology import optimize_topology
from tests.conftest import fleet_for


def _config(**overrides) -> FlowConfig:
    base = dict(budget=60, retarget_budget=30, verify_transient=False)
    base.update(overrides)
    return FlowConfig(**base)


SYNTH_GRID = CampaignGrid(resolutions=(10, 11), modes=("synthesis",))


class TestCrossScenarioReuse:
    def test_later_scenarios_warm_start_from_earlier_ones(self):
        campaign = run_campaign(SYNTH_GRID, config=_config())
        first, second = campaign.records

        # The first scenario pays the one cold synthesis of the batch...
        assert first.cold_runs == 1
        assert first.pool_warm_starts == 0
        # ...and every later block either retargets, seeded by the campaign
        # pool, or is served the block of an earlier scenario that poses
        # the same problem.
        assert second.cold_runs == 0
        assert second.retargeted_runs + second.shared_hits == second.unique_blocks
        assert second.shared_hits > 0
        assert second.pool_warm_starts > 0

        # A naive standalone run of the second scenario synthesizes cold.
        naive = optimize_topology(
            campaign.scenarios[1].scenario.spec, mode="synthesis", config=_config()
        )
        assert naive.unique_blocks == second.unique_blocks
        total_colds = sum(r.cold_runs for r in campaign.records)
        assert total_colds < 2  # batched: 1 cold for 2 scenarios

    def test_campaign_rankings_match_standalone_runs(self):
        # Warm starts change the search path, not the rankings' validity:
        # every block still meets the same spec.  Here we only require the
        # structural outcome (same candidates, all feasible) to match.
        campaign = run_campaign(SYNTH_GRID, config=_config())
        for scenario_result in campaign.scenarios:
            assert scenario_result.record.all_feasible
            labels = [label for label, _ in scenario_result.record.rankings]
            standalone = optimize_topology(
                scenario_result.scenario.spec, mode="analytic"
            )
            assert sorted(labels) == sorted(
                e.label for e in standalone.evaluations
            )

    def test_ledger_chaining_dedupes_repeat_campaigns(self):
        ledger = SynthesisLedger()
        first = run_campaign(SYNTH_GRID, config=_config(), ledger=ledger)
        first_searches = sum(
            r.cold_runs + r.retargeted_runs for r in first.records
        )
        assert first_searches > 0

        # The same grid against the same ledger: every block is an exact
        # fingerprint hit in the shared memory — zero new searches.
        second = run_campaign(SYNTH_GRID, config=_config(), ledger=ledger)
        assert sum(r.cold_runs + r.retargeted_runs for r in second.records) == 0
        assert all(
            r.shared_hits == r.unique_blocks for r in second.records
        )
        assert second.records[0].rankings == first.records[0].rankings

    def test_persistent_cache_spans_campaign_invocations(self, tmp_path):
        config = _config(cache_dir=str(tmp_path / "blocks"))
        grid = CampaignGrid(resolutions=(10,), modes=("synthesis",))
        first = run_campaign(grid, config=config)
        assert first.records[0].persistent_hits == 0

        # Fresh ledger, same disk cache: blocks load instead of searching.
        second = run_campaign(grid, config=config)
        record = second.records[0]
        assert record.cold_runs == record.retargeted_runs == 0
        assert record.persistent_hits == record.unique_blocks
        assert record.rankings == first.records[0].rankings


class TestFeasibilityEscalation:
    def test_infeasible_pool_warm_starts_escalate_to_cold(self):
        # A starvation-level retarget budget cannot carry a 10-bit donor to
        # a 13-bit block, so the campaign must fall back to cold synthesis
        # instead of keeping an infeasible warm-started design.  In-plan
        # retargets keep the legacy no-escalation semantics, so the scenario
        # may still contain infeasible blocks — but never *more* than a
        # naive standalone run under the same budgets.
        grid = CampaignGrid(resolutions=(10, 13), modes=("synthesis",))
        campaign = run_campaign(grid, config=_config(retarget_budget=2))
        second = campaign.records[1]
        assert second.pool_warm_starts > 0
        assert second.pool_escalations > 0
        # Every cold search of the scenario came from escalation: the pool
        # covered wave 0, and escalation re-ran the misses.
        assert second.cold_runs == second.pool_escalations

        naive = optimize_topology(
            campaign.scenarios[1].scenario.spec,
            mode="synthesis",
            config=_config(retarget_budget=2),
        )
        naive_feasible = sum(e.all_feasible for e in naive.evaluations)
        batched_feasible = sum(
            e.all_feasible for e in campaign.scenarios[1].topology.evaluations
        )
        assert batched_feasible >= naive_feasible

    def test_escalated_blocks_rerun_from_persistent_cache(self, tmp_path):
        # Failed warm attempts are persisted alongside the escalated cold
        # results, so a cache-backed rerun performs *zero* searches: the
        # cached failure routes each escalated block straight to its cold
        # entry instead of re-paying retarget + cold.
        grid = CampaignGrid(resolutions=(10, 13), modes=("synthesis",))
        config = _config(retarget_budget=2, cache_dir=str(tmp_path / "blocks"))
        first = run_campaign(grid, config=config)
        assert sum(r.pool_escalations for r in first.records) > 0

        second = run_campaign(grid, config=config)  # fresh ledger, same disk
        assert sum(r.cold_runs + r.retargeted_runs for r in second.records) == 0
        # Escalated blocks hit disk twice (cached failed attempt + cold
        # entry), and a block whose problem an earlier scenario already
        # solved is served by the ledger, so hits are at least one per block.
        assert all(
            r.persistent_hits + r.shared_hits >= r.unique_blocks
            for r in second.records
        )
        assert second.records[0].rankings == first.records[0].rankings
        assert second.records[1].rankings == first.records[1].rankings

    def test_infeasible_results_never_enter_the_spec_layer(self):
        # Starved budgets produce infeasible in-plan retargets; those must
        # stay out of the ledger's by_spec layer, or an identical spec in a
        # chained campaign would be "served" a block that never met it
        # (and the cold-escalation rescan would be defeated).
        ledger = SynthesisLedger()
        grid = CampaignGrid(resolutions=(10, 13), modes=("synthesis",))
        campaign = run_campaign(
            grid, config=_config(retarget_budget=2), ledger=ledger
        )
        assert not all(r.all_feasible for r in campaign.records)  # starved
        assert all(result.feasible for result in ledger.by_spec.values())
        # The exact fingerprint layer keeps everything, feasible or not.
        assert any(not result.feasible for result in ledger.memory.values())

    def test_escalation_is_backend_deterministic(self, tmp_path):
        grid = CampaignGrid(resolutions=(10, 13), modes=("synthesis",))
        serial = run_campaign(grid, config=_config(retarget_budget=2))
        config = _config(
            retarget_budget=2, backend="broker", queue_dir=str(tmp_path / "queue")
        )
        with fleet_for(config):
            brokered = run_campaign(grid, config=config)
        assert serial.records == brokered.records


class TestAnalyticCampaign:
    def test_records_have_no_synthesis_accounting(self):
        campaign = run_campaign(CampaignGrid(resolutions=(10, 11, 12)))
        for record in campaign.records:
            assert record.mode == "analytic"
            assert record.unique_blocks == 0
            assert record.cold_runs == record.retargeted_runs == 0

    def test_progress_callback_sees_every_scenario(self):
        seen = []
        campaign = run_campaign(
            CampaignGrid(resolutions=(10, 11)), progress=seen.append
        )
        assert [s.record.label for s in seen] == [
            r.label for r in campaign.records
        ]

    def test_mixed_mode_grid(self):
        grid = CampaignGrid(
            resolutions=(10,), modes=("analytic", "synthesis")
        )
        campaign = run_campaign(grid, config=_config())
        by_mode = {r.mode: r for r in campaign.records}
        assert by_mode["analytic"].unique_blocks == 0
        assert by_mode["synthesis"].unique_blocks > 0
        # Both modes rank the same candidate set.
        assert sorted(l for l, _ in by_mode["analytic"].rankings) == sorted(
            l for l, _ in by_mode["synthesis"].rankings
        )
