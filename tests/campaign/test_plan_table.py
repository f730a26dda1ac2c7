"""One plan per (spec, candidate) and one line per record, per campaign.

A grid point's analytic screen, synthesis scenario and behavioral verdict
plan the same candidates.  ``run_campaign`` reads them from one
:class:`~repro.specs.stage.PlanTable` made for the call, so each pair is
planned once, and each record's line is encoded once for its checkpoint
and ``results.jsonl``.  Nothing carries over to the next call.  A block
loaded from the persistent cache holds the planned spec object, whose
digest text the encoder already remembers.
"""

import json

import pytest

from repro.behavioral.verify import cached_verdict, verdict_key
from repro.campaign import CampaignGrid, run_campaign
from repro.campaign.checkpoint import CHECKPOINT_DIRNAME
from repro.engine.config import FlowConfig
from repro.engine.persist import digest, load_result, sizing_digest
from repro.enumeration.candidates import enumerate_candidates
from repro.flow.topology import optimize_topology
from repro.specs import AdcSpec, PlanTable, plan_stages
from tests.campaign.traffic import campaign_traffic

GRID = CampaignGrid(
    resolutions=(10, 11), modes=("analytic", "synthesis", "behavioral")
)

#: The (spec, candidate) pairs of the grid: K = 10 has 3 candidates, 11 has 4.
PAIRS = sum(len(enumerate_candidates(k)) for k in GRID.resolutions)


def _config(cache_dir, **overrides) -> FlowConfig:
    base = dict(
        budget=60,
        retarget_budget=30,
        verify_transient=False,
        behavioral_draws=4,
        cache_dir=str(cache_dir),
    )
    base.update(overrides)
    return FlowConfig(**base)


def _run(tmp_path, name, config):
    with campaign_traffic() as traffic:
        campaign = run_campaign(GRID, config, store_dir=tmp_path / name)
    return campaign, traffic


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A cold run of the grid into a fresh cache, with its traffic."""
    tmp_path = tmp_path_factory.mktemp("plans")
    config = _config(tmp_path / "cache")
    campaign, traffic = _run(tmp_path, "cold", config)
    return tmp_path, config, campaign, traffic


class TestCampaignTraffic:
    def test_a_cold_run_plans_each_pair_once(self, filled):
        _, _, campaign, traffic = filled
        assert traffic.replanned() == []
        assert len(traffic.plans) == traffic.distinct_pairs == PAIRS
        assert traffic.serializations == len(campaign.records) == 6

    def test_a_warm_rerun_plans_each_pair_once(self, filled):
        tmp_path, config, _, _ = filled
        campaign, traffic = _run(tmp_path, "warm", config)
        synthesis = [r for r in campaign.records if r.mode == "synthesis"]
        assert all(r.persistent_hits and not r.cold_runs for r in synthesis)
        assert traffic.replanned() == []
        assert len(traffic.plans) == traffic.distinct_pairs == PAIRS
        assert traffic.serializations == len(campaign.records)

    def test_a_second_campaign_plans_as_often_as_the_first(self, filled):
        tmp_path, config, _, _ = filled
        counts = []
        for name in ("again-1", "again-2"):
            _, traffic = _run(tmp_path, name, config)
            counts.append((len(traffic.plans), traffic.serializations))
        assert counts == [(PAIRS, 6), (PAIRS, 6)]

    def test_each_checkpoint_holds_its_results_line(self, filled):
        tmp_path, _, campaign, _ = filled
        store = tmp_path / "cold"
        lines = (store / "results.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines == [r.to_json() for r in campaign.records]
        for index, line in enumerate(lines):
            path = store / CHECKPOINT_DIRNAME / f"{index:05d}.json"
            assert json.loads(path.read_text(encoding="utf-8"))["record"] == line


class TestPlanTable:
    def test_equal_pairs_share_one_plan(self):
        table = PlanTable()
        candidate = enumerate_candidates(11)[1]
        first = table.plan(AdcSpec(resolution_bits=11), candidate)
        again = table.plan(AdcSpec(resolution_bits=11), candidate)
        assert again is first
        fresh = plan_stages(AdcSpec(resolution_bits=11), candidate)
        assert first == fresh
        assert digest(first) == digest(fresh)

    def test_tables_do_not_share_plans(self):
        candidate = enumerate_candidates(10)[0]
        spec = AdcSpec(resolution_bits=10)
        first, second = PlanTable(), PlanTable()
        assert first.plan(spec, candidate) is not second.plan(spec, candidate)

    def test_different_pairs_get_their_own_plans(self):
        table = PlanTable()
        spec = AdcSpec(resolution_bits=12)
        plans = [table.plan(spec, c) for c in enumerate_candidates(12)]
        assert [p.candidate for p in plans] == list(enumerate_candidates(12))
        slower_spec = AdcSpec(resolution_bits=12, sample_rate_hz=20e6)
        slower = table.plan(slower_spec, plans[0].candidate)
        assert slower is not plans[0]
        assert slower.spec.sample_rate_hz == 20e6

    def test_optimize_topology_reads_the_table(self):
        table = PlanTable()
        spec = AdcSpec(resolution_bits=10)
        with campaign_traffic() as traffic:
            analytic = optimize_topology(spec, plans=table)
            again = optimize_topology(AdcSpec(resolution_bits=10), plans=table)
        assert len(traffic.plans) == len(enumerate_candidates(10))
        for a, b in zip(analytic.evaluations, again.evaluations):
            assert b.plan is a.plan
            assert b.total_power == a.total_power

    def test_a_direct_call_plans_each_candidate_once(self):
        with campaign_traffic() as traffic:
            optimize_topology(AdcSpec(resolution_bits=11))
            optimize_topology(AdcSpec(resolution_bits=11))
        assert len(traffic.plans) == 2 * len(enumerate_candidates(11))

    def test_verdict_key_is_the_same_through_a_table(self):
        spec = AdcSpec(resolution_bits=10)
        candidate = enumerate_candidates(10)[0]
        table = PlanTable()
        table.plan(AdcSpec(resolution_bits=10), candidate)
        keys = {
            verdict_key(spec, candidate, draws=8, seed=3, plans=plans)
            for plans in (None, PlanTable(), table)
        }
        assert len(keys) == 1

    def test_a_verdict_miss_plans_once(self, tmp_path):
        spec = AdcSpec(resolution_bits=10)
        candidate = enumerate_candidates(10)[0]
        with campaign_traffic() as traffic:
            cached_verdict(spec, candidate, draws=2, seed=3, cache_dir=tmp_path)
        assert len(traffic.plans) == 1


class TestLoadedBlocks:
    def test_a_loaded_block_holds_the_planned_spec(self, tmp_path):
        config = FlowConfig(
            budget=60, retarget_budget=30, verify_transient=False,
            cache_dir=str(tmp_path),
        )
        spec = AdcSpec(resolution_bits=10)
        cold = optimize_topology(spec, mode="synthesis", config=config)
        cache = config.make_cache(spec.tech)
        table = PlanTable()
        warm = optimize_topology(
            AdcSpec(resolution_bits=10), mode="synthesis", config=config,
            cache=cache, plans=table,
        )
        assert cache.persistent_hits == len(cache.results) > 0
        # The scheduler synthesizes the first spec of each reuse key.
        planned = {}
        for candidate in enumerate_candidates(10):
            for mdac in table.plan(spec, candidate).mdacs:
                planned.setdefault(mdac.reuse_key, mdac)
        for key, block in cache.results.items():
            assert block.spec is planned[key]
        # The unpickled twins digest like the planned specs: no key moved.
        assert warm.power_table() == cold.power_table()
        twins = [load_result(tmp_path, p.stem) for p in tmp_path.glob("*.pkl")]
        assert sorted(sizing_digest(t) for t in twins) == sorted(
            sizing_digest(b) for b in cache.results.values()
        )
