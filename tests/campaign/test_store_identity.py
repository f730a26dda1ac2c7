"""On-disk identities of the default path, and the stores it refuses.

Manifest grid and config digests, block fingerprints, ledger spec keys,
verdict keys, broker task keys and service job keys address data
that outlives a process: campaign stores, the persistent block and verdict
cache, completed task acks and service job records.  The task and verdict
keys were computed before the batched DC kernel and the speculation knob
were removed.  The block and retarget fingerprints (with the donor's sizing
digest) and the ledger spec key were re-pinned when blocks were keyed on
the spec's problem (:class:`~repro.specs.stage.MdacProblem`), and the
config digest, grid digest and job keys with the ``MANIFEST_VERSION`` 4
bump that came with it.  When the search came to aim at a phase-margin
target and the repair ladder went, ``persist.FORMAT_VERSION`` 2 moved the
block and retarget fingerprints (the donor's sizing digest moved with its
search), and ``MANIFEST_VERSION`` 5 the config digest, grid digest and
job keys.  ``persist.FORMAT_VERSION`` 3 moved the block and retarget
fingerprints again when the AC read-outs came to solve the bench's free
node voltages: the cached margins and cost histories change in their
last bits, while the donor's sizing digest and every store byte held, so
``MANIFEST_VERSION`` stayed 5.  A change that moves any of them orphans
stores already on disk.

A verdict key covers the simulation's inputs, not its code, so the bits
of one small verdict are pinned beside it: a change that moves them must
bump :data:`~repro.behavioral.verify.VERDICT_VERSION` (and re-pin both),
or warm caches would keep serving the old verdicts.

The refusals cover what that removal, and the later removal of the
evaluation and behavioral kernel knobs, leave behind: a store written
under the batched kernel, a service config that still names a removed
knob, and a persisted service job whose request carries one.  A store
written under manifest version 3, whose synthesis records searched some
problems twice, is refused by resume and merge.
"""

import asyncio
import dataclasses
import hashlib
import struct

import pytest

from repro.behavioral.verify import VERDICT_VERSION, verdict_key, verify_candidate
from repro.campaign import CampaignGrid, merge_shards, run_campaign
from repro.campaign.manifest import (
    build_manifest,
    config_digest,
    grid_digest,
    read_manifest,
    require_matching_manifest,
    write_manifest,
)
from repro.campaign.runner import LedgerBackedCache
from repro.engine.config import FlowConfig
from repro.engine.persist import block_fingerprint, sizing_digest
from repro.engine.scheduler import SynthesisJob, run_synthesis_job
from repro.engine.broker import task_key
from repro.enumeration.candidates import PipelineCandidate, enumerate_candidates
from repro.errors import SpecificationError
from repro.service.jobs import JobRecord, JobStore, build_config, parse_request
from repro.service.scheduler import JobScheduler
from repro.specs import AdcSpec, plan_stages
from repro.synth import synthesize_mdac
from repro.tech import CMOS025

#: ``config_digest(FlowConfig())``.
DEFAULT_CONFIG_DIGEST = (
    "fcea9df468117c430f097f0829d408e791285e8f8b7bfc196d5e411b1acae8ab"
)

#: ``config_digest(FlowConfig())`` and the Fig. 2 grid digest under
#: manifest version 3, before blocks were keyed on the spec's problem.
V3_CONFIG_DIGEST = (
    "ca629b3d772896947b2cac6c1bb14f7f7498a76ea35719c80696f412c6c90cc1"
)
V3_FIG2_GRID_DIGEST = (
    "8faaaa6faf4d57bf53b4ee66ab242c29fcd30ce3957d7ade0d198d49c7d80f7a"
)

#: ``config_digest`` of a ``dc_kernel="batched"`` config, as the batched
#: kernel wrote it into store manifests.
BATCHED_CONFIG_DIGEST = (
    "c04dc1cc9417e5db34cc660a7c08eff2c5f10c0160c6fdecc7a1f29f640f38af"
)

REMOVED_CONFIG_FIELDS = (
    "behavioral_kernel",
    "dc_kernel",
    "eval_kernel",
    "eval_speculation",
)

#: The config every ``repro-adc submit`` sent before the knobs went.
LEGACY_SUBMIT_CONFIG = {
    "backend": "serial",
    "max_workers": None,
    "budget": 400,
    "retarget_budget": 80,
    "verify_transient": True,
    "eval_kernel": "compiled",
    "eval_speculation": -1,
    "dc_kernel": "chained",
    "behavioral_draws": 32,
    "behavioral_seed": 101,
    "behavioral_kernel": "batch",
    "telemetry": "metrics",
}

#: Requests as a server of that era persisted them, per job kind.
LEGACY_REQUESTS = {
    "campaign": {
        "kind": "campaign",
        "grid": {
            "resolutions": [10],
            "sample_rates_hz": [40e6],
            "modes": ["analytic"],
            "corners": ["nom"],
            "full_scale": 2.0,
        },
        "config": LEGACY_SUBMIT_CONFIG,
    },
    "optimize": {
        "kind": "optimize",
        "spec": {
            "resolution_bits": 10,
            "sample_rate_hz": 40e6,
            "full_scale": 2.0,
            "corner": "nom",
        },
        "mode": "analytic",
        "config": LEGACY_SUBMIT_CONFIG,
    },
}

GRID = CampaignGrid(resolutions=(10,), modes=("analytic",))

#: The paper's Fig. 2 grid as a synthesis campaign runs it.
FIG2_GRID = CampaignGrid(
    resolutions=(10, 11, 12, 13),
    sample_rates_hz=(40e6,),
    modes=("analytic", "synthesis", "behavioral"),
)


def _mdacs():
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs


def _mdac():
    return _mdacs()[0]


def _candidate_3_2():
    return next(c for c in enumerate_candidates(10) if c.label == "3-2")


def _one_line(exc_info) -> str:
    message = str(exc_info.value)
    assert "\n" not in message
    return message


class TestDefaultIdentitiesArePinned:
    def test_config_digest(self):
        assert config_digest(FlowConfig()) == DEFAULT_CONFIG_DIGEST

    def test_block_fingerprint(self):
        fingerprint = block_fingerprint(
            _mdac(), CMOS025, budget=400, seed=1, verify_transient=True
        )
        assert fingerprint == (
            "a3ba4efe84f2049a915d39e5e9e3716d6cf7c151333b13476ceb27c9ad426db9"
        )

    def test_synthesis_task_key(self):
        job = SynthesisJob(
            spec=_mdac(), tech=CMOS025, budget=400, seed=1, verify_transient=True
        )
        assert task_key(run_synthesis_job, job) == (
            "aae3c9003eb1615a8ca3586a6c3e454bbeeabad380797f0437b25928d97afc0b"
        )

    def test_retarget_fingerprint(self):
        donor = synthesize_mdac(
            _mdacs()[2], CMOS025, budget=60, seed=1, verify_transient=False
        )
        assert sizing_digest(donor) == (
            "5e9bfb4baabcefff6a7132f726aec7af2e4560f25639a1b1d33a5dcf6cc31890"
        )
        fingerprint = block_fingerprint(
            _mdacs()[1],
            CMOS025,
            budget=60,
            seed=1,
            verify_transient=False,
            donor=donor,
            retarget_budget=30,
            retarget_seed=7,
        )
        assert fingerprint == (
            "05ea11f8cdbdd0b8ec4d95e7b1a8667cfd743d8cd13d55519b32e2095205c92f"
        )

    def test_fig2_grid_digest(self):
        assert grid_digest(FIG2_GRID) == (
            "0a20b6ed9307eb454b32e413b9f28ffa71a6c784debecf243e766f06c3eb866c"
        )

    def test_ledger_spec_key(self):
        assert LedgerBackedCache(tech=CMOS025)._spec_key(_mdac()) == (
            "3266ec241d6148bb4792fe3dff6f6994f4ca841ad91a9aebbadc024d6349c5e9"
        )

    def test_campaign_job_key(self):
        request = parse_request(
            {
                "kind": "campaign",
                "grid": {
                    "resolutions": [10, 11, 12, 13],
                    "modes": ["analytic", "synthesis", "behavioral"],
                },
            }
        )
        assert request.key == (
            "db6b7a9f069d638d9dac81048437db882e20409e86664a123ba076f165843383"
        )

    def test_optimize_job_key(self):
        request = parse_request(
            {"kind": "optimize", "spec": {"resolution_bits": 12}, "mode": "synthesis"}
        )
        assert request.key == (
            "f5849b4b968eece0b36bcea466512e50716f20719080ce4a23d4962c0a70087b"
        )

    def test_verdict_key(self):
        config = FlowConfig()
        key = verdict_key(
            AdcSpec(resolution_bits=10),
            _candidate_3_2(),
            draws=config.behavioral_draws,
            seed=config.behavioral_seed,
        )
        assert VERDICT_VERSION == 1
        assert key == (
            "2d2040e08c12b351da7d7ecb08c7ccb64b9dd94bbd9ffaf9c3dc047c57882ba6"
        )

    def test_verdict_bits_under_this_key_version(self):
        verdict = verify_candidate(
            AdcSpec(resolution_bits=10), _candidate_3_2(), draws=8, seed=1
        )
        bits = struct.pack("<8d", *verdict.sndr_db)
        assert VERDICT_VERSION == 1
        assert hashlib.sha256(bits).hexdigest() == (
            "d52007d30e9f952a4440a5dbac3df7eec546a73e40dd3d779350f03eb6f250c2"
        )


def _as_version_3(store) -> None:
    """Rewrite a store's manifest as manifest version 3 wrote it."""
    manifest = read_manifest(store)
    write_manifest(
        dataclasses.replace(
            manifest,
            grid_digest=V3_FIG2_GRID_DIGEST,
            config_digest=V3_CONFIG_DIGEST,
            format_version=3,
        ),
        store,
    )


class TestVersion3StoresAreRefused:
    def test_resume_refuses_a_version_3_store(self, tmp_path):
        write_manifest(build_manifest(FIG2_GRID, FlowConfig()), tmp_path)
        _as_version_3(tmp_path)
        with pytest.raises(SpecificationError) as exc:
            run_campaign(FIG2_GRID, FlowConfig(), store_dir=tmp_path, resume=True)
        message = _one_line(exc)
        assert "format version (store 3, requested 5" in message
        assert "grid digest" not in message

    @pytest.mark.parametrize(
        "old_shards", [(1,), (1, 2)], ids=["beside-a-new-shard", "all-shards-old"]
    )
    def test_merge_refuses_a_version_3_shard(self, tmp_path, old_shards):
        grid = CampaignGrid(resolutions=(10, 11), modes=("analytic",))
        shards = [tmp_path / f"shard{k}" for k in (1, 2)]
        for k, store in enumerate(shards, start=1):
            run_campaign(grid, FlowConfig(), store_dir=store, shard=(k, 2))
        for k in old_shards:
            _as_version_3(shards[k - 1])
        with pytest.raises(SpecificationError) as exc:
            merge_shards(shards, tmp_path / "merged")
        assert "manifest version 3, not 5" in _one_line(exc)
        assert not (tmp_path / "merged").exists()


class TestRemovedKernelStoresAreRefused:
    def test_manifest_with_batched_digest_is_refused(self, tmp_path):
        expected = build_manifest(GRID, FlowConfig())
        batched = dataclasses.replace(expected, config_digest=BATCHED_CONFIG_DIGEST)
        with pytest.raises(SpecificationError) as exc:
            require_matching_manifest(batched, expected, tmp_path)
        assert "config digest" in _one_line(exc)

    @pytest.mark.parametrize(
        "body",
        [
            {"dc_kernel": "chained"},
            {"eval_speculation": 0},
            {"eval_kernel": "compiled"},
            {"behavioral_kernel": "batch"},
        ],
    )
    def test_service_config_rejects_removed_fields(self, body):
        with pytest.raises(SpecificationError) as exc:
            build_config(body)
        assert "unknown config field" in _one_line(exc)

    @pytest.mark.parametrize("state", ["queued", "running", "done"])
    @pytest.mark.parametrize("kind", sorted(LEGACY_REQUESTS))
    def test_persisted_job_with_removed_fields_fails_then_reruns(
        self, tmp_path, kind, state
    ):
        old_body = LEGACY_REQUESTS[kind]
        new_body = {
            **old_body,
            "config": {
                name: value
                for name, value in old_body["config"].items()
                if name not in REMOVED_CONFIG_FIELDS
            },
        }
        # The removed knobs never entered the job key, so the old record
        # sits under the key the same request gets today.
        key = parse_request(new_body).key
        store = JobStore(tmp_path)
        # queued/running: the old server stopped before the job finished;
        # done: its result has since been lost.
        store.save(
            JobRecord(
                key=key,
                kind=kind,
                request=old_body,
                state=state,
                seq=1,
                total_scenarios=1,
            )
        )

        async def restarted_server():
            scheduler = JobScheduler(store, job_workers=1)
            await scheduler.start()
            recovered = scheduler.jobs[key]
            on_recovery = (recovered.state, recovered.error)
            rerun, coalesced = scheduler.submit(new_body)
            while scheduler.stats()["queued"] or scheduler.stats()["running"]:
                await asyncio.sleep(0.01)
            await scheduler.drain()
            return on_recovery, rerun, coalesced

        (state_after, error), rerun, coalesced = asyncio.run(
            asyncio.wait_for(restarted_server(), 60)
        )
        assert state_after == "failed"
        assert "\n" not in error
        removed = ", ".join(map(repr, REMOVED_CONFIG_FIELDS))
        assert f"unknown config field(s) {removed}" in error
        assert not coalesced
        assert rerun.state == "done"
        assert store.result_ready(key)
        (persisted,) = store.load_all()
        assert persisted.request == parse_request(new_body).body

    def test_service_config_rejects_the_queue_backend(self):
        with pytest.raises(SpecificationError) as exc:
            build_config({"backend": "queue"})
        assert _one_line(exc) == (
            "unknown execution backend 'queue' (valid: broker, process, serial)"
        )

    def test_persisted_queue_job_fails_then_reruns_on_serial(self, tmp_path):
        serial_body = {
            **LEGACY_REQUESTS["campaign"],
            "config": {
                name: value
                for name, value in LEGACY_SUBMIT_CONFIG.items()
                if name not in REMOVED_CONFIG_FIELDS
            },
        }
        queue_body = {
            **serial_body,
            "config": {**serial_body["config"], "backend": "queue"},
        }
        # The backend never entered the job key, so the old record sits
        # under the key the same grid gets on the serial backend today.
        key = parse_request(serial_body).key
        store = JobStore(tmp_path)
        store.save(
            JobRecord(
                key=key,
                kind="campaign",
                request=queue_body,
                state="queued",
                seq=1,
                total_scenarios=1,
            )
        )

        async def restarted_server():
            scheduler = JobScheduler(store, job_workers=1)
            await scheduler.start()
            recovered = scheduler.jobs[key]
            on_recovery = (recovered.state, recovered.error)
            rerun, coalesced = scheduler.submit(serial_body)
            while scheduler.stats()["queued"] or scheduler.stats()["running"]:
                await asyncio.sleep(0.01)
            await scheduler.drain()
            return on_recovery, rerun, coalesced

        (state_after, error), rerun, coalesced = asyncio.run(
            asyncio.wait_for(restarted_server(), 60)
        )
        assert state_after == "failed"
        assert error == (
            "SpecificationError: unknown execution backend 'queue' "
            "(valid: broker, process, serial)"
        )
        assert not coalesced
        assert rerun.key == key and rerun.state == "done"
        assert store.result_ready(key)
