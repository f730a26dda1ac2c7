"""Corner-scoped determinism: sharding a corner sweep never changes bytes.

The PR 6 tentpole: the ledger's warm-start donor pool is scoped per
technology corner, which makes each corner's synthesis chain a
ledger-independent shard unit.  The contract tested here:

* a multi-corner synthesis campaign produces byte-identical records and
  reports on every backend (serial/process/queue/broker);
* running it corner-sharded (one shard per corner unit) and merging
  reproduces the unsharded store byte-for-byte — the sharding PR 4 had to
  forbid for synthesis grids;
* a run interrupted after its first corner resumes to the same bytes;
* donors never cross corner scopes.
"""

import pytest

from repro.campaign import CampaignGrid, merge_shards, run_campaign
from repro.campaign.grid import count_shard_units, shard_scenarios
from repro.campaign.runner import SynthesisLedger
from repro.engine.config import FlowConfig
from repro.tech import CMOS025
from repro.tech.process import CMOS025_SLOW
from tests.conftest import fleet_for

BACKENDS = ("serial", "process", "queue", "broker")

GRID = CampaignGrid(
    resolutions=(10,),
    modes=("synthesis",),
    corners=(("nom", CMOS025), ("slow", CMOS025_SLOW)),
)


def _config(backend="serial", **overrides):
    base = dict(
        backend=backend,
        max_workers=2,
        budget=60,
        retarget_budget=30,
        verify_transient=False,
    )
    base.update(overrides)
    return FlowConfig(**base)


def _run(backend, store, **kwargs):
    """One GRID campaign into ``store``; a broker leg gets in-process workers."""
    queue_dir = f"{store}-queue" if backend == "broker" else None
    config = _config(backend, queue_dir=queue_dir)
    with fleet_for(config):
        return run_campaign(GRID, config=config, store_dir=store, **kwargs)


class _Interrupt(Exception):
    """Stands in for SIGTERM: raised from the progress hook mid-campaign."""


def _interrupt_after(n: int):
    seen = []

    def hook(scenario_result):
        seen.append(scenario_result)
        if len(seen) >= n:
            raise _Interrupt

    return hook


class TestCornerShardUnits:
    def test_each_corner_is_its_own_unit(self):
        scenarios = GRID.expand()
        assert count_shard_units(scenarios) == 2
        for k in (1, 2):
            shard = shard_scenarios(scenarios, k, 2)
            corners = {s.corner for s in shard}
            assert len(shard) == 1
            assert len(corners) == 1
        covered = {s.corner for k in (1, 2) for s in shard_scenarios(GRID.expand(), k, 2)}
        assert covered == {"nom", "slow"}

    def test_one_corner_never_splits(self):
        grid = CampaignGrid(
            resolutions=(10, 11),
            modes=("synthesis",),
            corners=(("nom", CMOS025), ("slow", CMOS025_SLOW)),
        )
        scenarios = grid.expand()
        for count in (2, 3):
            for corner in ("nom", "slow"):
                owners = {
                    k
                    for k in range(1, count + 1)
                    if any(
                        s.corner == corner
                        for s in shard_scenarios(scenarios, k, count)
                    )
                }
                assert len(owners) == 1, (corner, count)

    def test_mixed_mode_units_count_analytics_individually(self):
        grid = CampaignGrid(
            resolutions=(10, 11),
            modes=("analytic", "synthesis"),
            corners=(("nom", CMOS025), ("slow", CMOS025_SLOW)),
        )
        # 4 analytic scenarios + 2 per-corner synthesis chains.
        assert count_shard_units(grid.expand()) == 6


class TestCornerShardedByteIdentity:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("corner-ref") / "store"
        run_campaign(GRID, config=_config(), store_dir=out)
        return out

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_backends_match_serial(self, reference, backend, tmp_path):
        out = tmp_path / backend
        _run(backend, out)
        for name in ("results.jsonl", "report.txt"):
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corner_sharded_merge_matches_unsharded(
        self, reference, backend, tmp_path
    ):
        shard_dirs = []
        for k in (1, 2):
            directory = tmp_path / f"{backend}-shard{k}"
            _run(backend, directory, shard=(k, 2))
            shard_dirs.append(directory)
        merged = tmp_path / f"{backend}-merged"
        merge_shards(shard_dirs, out_dir=merged)
        for name in ("results.jsonl", "report.txt", "manifest.json"):
            assert (merged / name).read_bytes() == (reference / name).read_bytes(), name

    def test_interrupt_and_resume_matches_uninterrupted(self, reference, tmp_path):
        # The first corner's checkpoint replays with its donor scope, and
        # the second corner finishes exactly as in one uninterrupted run.
        store = tmp_path / "interrupted"
        with pytest.raises(_Interrupt):
            run_campaign(
                GRID, config=_config(), store_dir=store, progress=_interrupt_after(1)
            )
        resumed = run_campaign(GRID, config=_config(), store_dir=store, resume=True)
        assert resumed.replayed_scenarios == 1
        for name in ("results.jsonl", "report.txt"):
            assert (store / name).read_bytes() == (reference / name).read_bytes(), name


class TestDonorScoping:
    def test_donors_never_cross_corner_scopes(self):
        ledger = SynthesisLedger()
        run_campaign(GRID, config=_config(), ledger=ledger)
        assert ledger.donors  # synthesis happened
        assert len(ledger._donor_scopes) == len(ledger.donors)
        scopes = set(ledger._donor_scopes)
        assert scopes <= {"cmos025", "cmos025_slow"}
        for scope in scopes:
            visible = ledger.donors_for(scope)
            for donor in visible:
                index = ledger.donors.index(donor)
                assert ledger._donor_scopes[index] == scope

    def test_unscoped_legacy_donors_stay_globally_visible(self):
        ledger = SynthesisLedger()
        run_campaign(GRID, config=_config(), ledger=ledger)
        donor = ledger.donors[0]
        legacy = SynthesisLedger()
        legacy.replay([("fp", "spec-key", donor)])  # pre-scoping journal entry
        assert legacy.donors_for("cmos025") == (donor,)
        assert legacy.donors_for("anything") == (donor,)

    def test_journal_replay_reconstructs_scopes(self, tmp_path):
        ledger = SynthesisLedger()
        ledger.journal = []
        run_campaign(GRID, config=_config(), ledger=ledger, store_dir=tmp_path / "s")
        # The store's checkpoints carry the journals; a fresh ledger built
        # from replay must agree scope-for-scope with the live one.
        fresh = SynthesisLedger()
        from repro.campaign.checkpoint import CheckpointStore

        for scenario, record, journal in CheckpointStore(
            tmp_path / "s"
        ).completed_prefix(GRID.expand()):
            fresh.replay(journal)
        assert fresh._donor_scopes == ledger._donor_scopes
        assert [d.final.power for d in fresh.donors] == [
            d.final.power for d in ledger.donors
        ]
