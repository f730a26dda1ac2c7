"""Checkpointed campaigns: kill/resume byte-identity and manifest guards."""

import pytest

from repro.campaign import (
    CampaignGrid,
    CheckpointStore,
    build_manifest,
    read_manifest,
    run_campaign,
)
from repro.engine import scheduler
from repro.engine.broker import MAX_RETRIES, NACK_SUFFIX
from repro.engine.config import FlowConfig
from repro.errors import SpecificationError
from tests.conftest import fleet_for


def _config(**overrides) -> FlowConfig:
    base = dict(budget=60, retarget_budget=30, verify_transient=False)
    base.update(overrides)
    return FlowConfig(**base)


SYNTH_GRID = CampaignGrid(resolutions=(10, 11), modes=("synthesis",))
ANALYTIC_GRID = CampaignGrid(resolutions=(10, 11, 12), sample_rates_hz=(20e6, 40e6))


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


class TestResumeByteIdentity:
    @pytest.mark.parametrize("stop_after", [1, 2, 3])
    def test_analytic_interrupt_anywhere_resumes_identically(
        self, tmp_path, stop_after
    ):
        ref = tmp_path / "ref"
        run_campaign(ANALYTIC_GRID, store_dir=ref)

        store = tmp_path / f"interrupted-{stop_after}"
        with pytest.raises(_Interrupt):
            run_campaign(
                ANALYTIC_GRID, store_dir=store, progress=_interrupt_after(stop_after)
            )
        assert not (store / "results.jsonl").exists()  # nothing flushed yet

        resumed = run_campaign(ANALYTIC_GRID, store_dir=store, resume=True)
        assert resumed.replayed_scenarios == stop_after
        assert _store_bytes(store) == _store_bytes(ref)

    def test_synthesis_resume_replays_the_ledger(self, tmp_path):
        # The second scenario's warm starts come from the first scenario's
        # ledger contribution; a resume that skipped the first scenario
        # without replaying its journal would synthesize different blocks.
        ref = tmp_path / "ref"
        reference = run_campaign(SYNTH_GRID, config=_config(), store_dir=ref)
        assert reference.records[1].pool_warm_starts > 0  # ledger did matter

        store = tmp_path / "interrupted"
        with pytest.raises(_Interrupt):
            run_campaign(
                SYNTH_GRID,
                config=_config(),
                store_dir=store,
                progress=_interrupt_after(1),
            )

        resumed = run_campaign(SYNTH_GRID, config=_config(), store_dir=store, resume=True)
        assert resumed.replayed_scenarios == 1
        assert resumed.scenarios[0].replayed and resumed.scenarios[0].topology is None
        assert not resumed.scenarios[1].replayed
        assert _store_bytes(store) == _store_bytes(ref)

    def test_resume_of_a_completed_store_replays_everything(self, tmp_path):
        store = tmp_path / "store"
        first = run_campaign(SYNTH_GRID, config=_config(), store_dir=store)
        again = run_campaign(SYNTH_GRID, config=_config(), store_dir=store, resume=True)
        assert again.replayed_scenarios == len(first.records)
        assert again.records == first.records
        assert _store_bytes(store) == _store_bytes(store)  # still a valid store

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(_Interrupt):
            run_campaign(
                ANALYTIC_GRID, store_dir=store, progress=_interrupt_after(2)
            )
        checkpoints = CheckpointStore(store)
        assert checkpoints.completed_prefix(ANALYTIC_GRID.expand())

        # Without resume=True the store restarts from scratch...
        fresh = run_campaign(ANALYTIC_GRID, store_dir=store)
        assert fresh.replayed_scenarios == 0

    def test_fresh_run_clears_stale_queue_acks(self, tmp_path):
        # Acks key on (spec, budgets, seeds) — not code — so a fresh
        # (non-resume) run must not inherit results a previous run acked.
        config = _config(backend="queue", max_workers=1)
        store = tmp_path / "store"
        run_campaign(SYNTH_GRID, config=config, store_dir=store)
        sentinel = store / "queue" / "stale-marker.ack.pkl"
        sentinel.write_bytes(b"left over from a previous run")
        run_campaign(SYNTH_GRID, config=config, store_dir=store)
        assert not sentinel.exists()

    def test_queue_backend_resume_is_byte_identical(self, tmp_path):
        config = _config(backend="queue", max_workers=2)
        ref = tmp_path / "ref"
        run_campaign(SYNTH_GRID, config=config, store_dir=ref)

        store = tmp_path / "interrupted"
        with pytest.raises(_Interrupt):
            run_campaign(
                SYNTH_GRID,
                config=config,
                store_dir=store,
                progress=_interrupt_after(1),
            )
        # The queue's ack files live inside the store and survive the kill.
        assert any((store / "queue").iterdir())

        run_campaign(SYNTH_GRID, config=config, store_dir=store, resume=True)
        assert _store_bytes(store) == _store_bytes(ref)

    def test_resume_retries_a_task_that_failed_before(self, tmp_path, monkeypatch):
        # A synthesis task raised MAX_RETRIES times and left its failure
        # record in the store's queue.  With the fault gone, the resume
        # runs it again and ends with the uninterrupted run's bytes.
        config = _config(backend="queue", max_workers=1)
        grid = CampaignGrid(resolutions=(10,), modes=("synthesis",))
        ref = tmp_path / "ref"
        run_campaign(grid, config=config, store_dir=ref)

        fixed = tmp_path / "fault-fixed"
        synthesize = scheduler.synthesize_mdac
        attempts = []

        def flaky(*args, **kwargs):
            if not fixed.exists():
                attempts.append(args)
                raise OSError("disk went away")
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(scheduler, "synthesize_mdac", flaky)
        store = tmp_path / "store"
        failed = rf"failed {MAX_RETRIES} time\(s\): OSError: disk went away"
        with pytest.raises(RuntimeError, match=failed):
            run_campaign(grid, config=config, store_dir=store)
        assert list((store / "queue").glob(f"*{NACK_SUFFIX}"))

        # Still failing: the resume gives up after MAX_RETRIES fresh tries.
        before = len(attempts)
        with pytest.raises(RuntimeError, match=failed):
            run_campaign(grid, config=config, store_dir=store, resume=True)
        assert len(attempts) - before >= MAX_RETRIES

        fixed.touch()
        run_campaign(grid, config=config, store_dir=store, resume=True)
        assert _store_bytes(store) == _store_bytes(ref)
        assert not list((store / "queue").glob(f"*{NACK_SUFFIX}"))


class TestManifestGuards:
    def test_resume_refuses_a_different_grid(self, tmp_path):
        store = tmp_path / "store"
        run_campaign(ANALYTIC_GRID, store_dir=store)
        other = CampaignGrid(resolutions=(10, 11, 13), sample_rates_hz=(20e6, 40e6))
        with pytest.raises(SpecificationError, match="grid digest"):
            run_campaign(other, store_dir=store, resume=True)

    def test_resume_refuses_a_different_config(self, tmp_path):
        store = tmp_path / "store"
        run_campaign(SYNTH_GRID, config=_config(), store_dir=store)
        with pytest.raises(SpecificationError, match="config digest"):
            run_campaign(
                SYNTH_GRID, config=_config(budget=61), store_dir=store, resume=True
            )

    def test_resume_refuses_a_different_shard(self, tmp_path):
        store = tmp_path / "store"
        run_campaign(ANALYTIC_GRID, store_dir=store, shard=(1, 2))
        with pytest.raises(SpecificationError, match="shard"):
            run_campaign(ANALYTIC_GRID, store_dir=store, resume=True, shard=(2, 2))

    def test_execution_knobs_do_not_poison_the_manifest(self, tmp_path):
        # Backend/workers/queue/telemetry are execution-only: a campaign
        # interrupted under one backend may resume under another.
        store = tmp_path / "store"
        config = FlowConfig(
            backend="broker", max_workers=2, queue_dir=str(tmp_path / "queue")
        )
        with fleet_for(config), pytest.raises(_Interrupt):
            run_campaign(
                ANALYTIC_GRID,
                config=config,
                store_dir=store,
                progress=_interrupt_after(1),
            )
        resumed = run_campaign(
            ANALYTIC_GRID,
            config=FlowConfig(backend="process", max_workers=2, telemetry="off"),
            store_dir=store,
            resume=True,
        )
        assert resumed.replayed_scenarios == 1

    def test_resume_requires_store_dir(self):
        with pytest.raises(SpecificationError, match="store_dir"):
            run_campaign(ANALYTIC_GRID, resume=True)

    def test_resume_of_an_empty_directory_is_a_fresh_run(self, tmp_path):
        store = tmp_path / "empty"
        campaign = run_campaign(ANALYTIC_GRID, store_dir=store, resume=True)
        assert campaign.replayed_scenarios == 0
        assert (store / "results.jsonl").exists()

    def test_corrupt_checkpoint_degrades_to_rerun(self, tmp_path):
        store = tmp_path / "store"
        run_campaign(ANALYTIC_GRID, store_dir=store)
        ref_bytes = _store_bytes(store)
        # Corrupt the second checkpoint: resume must replay only scenario 1
        # and re-run the rest, still reproducing the store byte-for-byte.
        (store / "checkpoints" / "00001.json").write_text("garbage")
        resumed = run_campaign(ANALYTIC_GRID, store_dir=store, resume=True)
        assert resumed.replayed_scenarios == 1
        assert _store_bytes(store) == ref_bytes

    def test_manifest_round_trips(self, tmp_path):
        from repro.campaign import write_manifest

        manifest = build_manifest(ANALYTIC_GRID, FlowConfig(), (1, 2))
        write_manifest(manifest, tmp_path)
        assert read_manifest(tmp_path) == manifest
