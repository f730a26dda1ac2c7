"""Behavioral scenarios pass the full campaign determinism matrix.

The PR 6 corner-determinism contract extended to the behavioral tier:
Monte-Carlo verification records must be byte-identical across execution
backends, across ``--shard K/N`` plus merge, across SIGTERM/resume — the
mismatch draws are replayed from the checkpointed seed, never re-sampled —
and across a cold and a warm verdict cache.  Also pinned here: the
winner-map coupling (a behavioral scenario verifies the synthesis winner
from its own grid and therefore shards with that tech's synthesis chain)
and the manifest identity rules (draws and seed are store identity).
"""

import json

import pytest

from repro.behavioral.verify import VERDICT_DIRNAME
from repro.campaign import CampaignGrid, merge_shards, run_campaign
from repro.campaign.grid import count_shard_units, shard_scenarios
from repro.campaign.manifest import config_digest
from repro.engine.config import FlowConfig
from tests.conftest import fleet_for

BACKENDS = ("serial", "process", "broker")

#: Analytic screen + behavioral verification: no synthesis, fast enough to
#: sweep every backend.
GRID = CampaignGrid(resolutions=(10, 11), modes=("analytic", "behavioral"))

SYNTH_GRID = CampaignGrid(resolutions=(10,), modes=("synthesis", "behavioral"))


def _config(backend="serial", **overrides):
    base = dict(
        backend=backend,
        max_workers=2,
        budget=60,
        retarget_budget=30,
        verify_transient=False,
        behavioral_draws=4,
    )
    base.update(overrides)
    return FlowConfig(**base)


class _Interrupt(Exception):
    """Stands in for SIGTERM: raised from the progress hook mid-campaign."""


def _interrupt_after(n: int):
    seen = []

    def hook(scenario_result):
        seen.append(scenario_result)
        if len(seen) >= n:
            raise _Interrupt

    return hook


def _store_bytes(store):
    return (
        (store / "results.jsonl").read_bytes(),
        (store / "report.txt").read_bytes(),
    )


class TestBehavioralShardUnits:
    def test_without_synthesis_each_behavioral_scenario_stands_alone(self):
        scenarios = GRID.expand()
        # 2 analytic + 2 behavioral, all individually schedulable.
        assert count_shard_units(scenarios) == 4

    def test_behavioral_joins_its_techs_synthesis_unit(self):
        scenarios = SYNTH_GRID.expand()
        assert count_shard_units(scenarios) == 1
        # The single unit carries both modes: splitting them would hand the
        # behavioral scenario to a shard without the synthesis winner map.
        shard = shard_scenarios(scenarios, 1, 1)
        assert {s.mode for s in shard} == {"synthesis", "behavioral"}

    def test_sharded_behavioral_rides_with_its_synthesis_chain(self):
        grid = CampaignGrid(
            resolutions=(10, 11), modes=("synthesis", "behavioral")
        )
        scenarios = grid.expand()
        for count in (2, 3):
            owners = {
                k
                for k in range(1, count + 1)
                if shard_scenarios(scenarios, k, count)
            }
            for k in owners:
                shard = shard_scenarios(scenarios, k, count)
                if any(s.mode == "behavioral" for s in shard):
                    assert any(s.mode == "synthesis" for s in shard), (k, count)


class TestBehavioralBackendAndShardByteIdentity:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("behavioral-ref") / "store"
        run_campaign(GRID, config=_config(), store_dir=out)
        return out

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_backends_match_serial(self, reference, backend, tmp_path):
        out = tmp_path / backend
        broker = str(tmp_path / "queue") if backend == "broker" else None
        config = _config(backend, broker=broker)
        with fleet_for(config):
            run_campaign(GRID, config=config, store_dir=out)
        for name in ("results.jsonl", "report.txt"):
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_sharded_merge_matches_unsharded(self, reference, backend, tmp_path):
        shard_dirs = []
        for k in (1, 2):
            directory = tmp_path / f"{backend}-shard{k}"
            run_campaign(
                GRID, config=_config(backend), store_dir=directory, shard=(k, 2)
            )
            shard_dirs.append(directory)
        merged = tmp_path / f"{backend}-merged"
        merge_shards(shard_dirs, out_dir=merged)
        for name in ("results.jsonl", "report.txt", "manifest.json"):
            assert (merged / name).read_bytes() == (reference / name).read_bytes(), name

    def test_interrupt_and_resume_replays_draws(self, reference, tmp_path):
        store = tmp_path / "interrupted"
        with pytest.raises(_Interrupt):
            run_campaign(
                GRID, config=_config(), store_dir=store, progress=_interrupt_after(2)
            )
        resumed = run_campaign(
            GRID, config=_config(), store_dir=store, resume=True
        )
        assert resumed.replayed_scenarios == 2
        assert _store_bytes(store) == _store_bytes(reference)

    @pytest.mark.parametrize("backend", ("serial", "process", "broker"))
    def test_cold_then_warm_verdict_cache(self, reference, backend, tmp_path):
        cache_dir = tmp_path / "cache"
        broker = str(tmp_path / "queue") if backend == "broker" else None
        config = _config(backend, broker=broker, cache_dir=str(cache_dir))
        for leg, counted in (("cold", "misses"), ("warm", "hits")):
            out = tmp_path / leg
            with fleet_for(config):
                run_campaign(GRID, config=config, store_dir=out)
            for name in ("results.jsonl", "report.txt", "manifest.json"):
                expected = (reference / name).read_bytes()
                assert (out / name).read_bytes() == expected, (leg, name)
            payload = json.loads((out / "metrics.json").read_text())
            counters = payload["metrics"]["counters"]
            verdicts = {
                kind: counters.get(f"behavioral.verdict_{kind}", 0)
                for kind in ("hits", "misses")
            }
            assert verdicts == {"hits": 0, "misses": 0, counted: 2}, leg
        assert len(list((cache_dir / VERDICT_DIRNAME).iterdir())) == 2


class TestSynthesisWinnerCoupling:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("behavioral-synth") / "store"
        return run_campaign(SYNTH_GRID, config=_config(), store_dir=out), out

    def test_behavioral_verifies_the_synthesis_winner(self, result):
        campaign, _ = result
        by_mode = {record.mode: record for record in campaign.records}
        behavioral = by_mode["behavioral"]
        assert behavioral.behavioral["winner_source"] == "synthesis"
        assert behavioral.winner == by_mode["synthesis"].winner
        assert behavioral.behavioral["draws"] == 4

    def test_resume_rebuilds_the_winner_map_from_records(self, result, tmp_path):
        # Interrupt after the synthesis scenario: the behavioral scenario on
        # resume must find the winner in the *replayed* record, not fall
        # back to an analytic screen.
        _, reference = result
        store = tmp_path / "interrupted"
        with pytest.raises(_Interrupt):
            run_campaign(
                SYNTH_GRID,
                config=_config(),
                store_dir=store,
                progress=_interrupt_after(1),
            )
        resumed = run_campaign(
            SYNTH_GRID, config=_config(), store_dir=store, resume=True
        )
        assert resumed.replayed_scenarios == 1
        behavioral = next(r for r in resumed.records if r.mode == "behavioral")
        assert behavioral.behavioral["winner_source"] == "synthesis"
        assert _store_bytes(store) == _store_bytes(reference)

    def test_standalone_behavioral_screens_analytically(self, tmp_path):
        grid = CampaignGrid(resolutions=(10,), modes=("behavioral",))
        campaign = run_campaign(grid, config=_config(), store_dir=tmp_path / "s")
        (record,) = campaign.records
        assert record.behavioral["winner_source"] == "analytic"


class TestManifestIdentity:
    def test_draws_and_seed_are_store_identity(self):
        base = config_digest(_config())
        assert config_digest(_config(behavioral_draws=8)) != base
        assert config_digest(_config(behavioral_seed=202)) != base
