"""On-disk identities of the default path, and the stores it refuses.

Manifest grid and config digests, block fingerprints, ledger spec keys,
verdict keys, queue/broker task keys and service job keys address data
that outlives a process: campaign stores, the persistent block and verdict
cache, completed task acks and service job records.  The values below
were computed before the batched DC kernel and the speculation knob were
removed; the retarget fingerprint, grid digest, ledger spec key and job
keys were computed with ``persist.digest`` encoding through
``_canonical`` + ``json.dumps``.  A change that moves any of them orphans
stores already on disk.

A verdict key covers the simulation's inputs, not its code, so the bits
of one small verdict are pinned beside it: a change that moves them must
bump :data:`~repro.behavioral.verify.VERDICT_VERSION` (and re-pin both),
or warm caches would keep serving the old verdicts.

The refusals cover what that removal, and the later removal of the
evaluation and behavioral kernel knobs, leave behind: a store written
under the batched kernel, a service config that still names a removed
knob, and a persisted service job whose request carries one.
"""

import asyncio
import dataclasses
import hashlib
import struct

import pytest

from repro.behavioral.verify import VERDICT_VERSION, verdict_key, verify_candidate
from repro.campaign import CampaignGrid
from repro.campaign.manifest import (
    build_manifest,
    config_digest,
    grid_digest,
    require_matching_manifest,
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
    "ca629b3d772896947b2cac6c1bb14f7f7498a76ea35719c80696f412c6c90cc1"
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
            "b80615cec96a3c3515f81760077b645138a841cca35d34b13cd1fe885d3126c0"
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
            "d8744a725556cc78b684e3d6b6776f4ad3d8098aecee529de7ccb642389a1a31"
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
            "ac0b8429a4b98885122c436c47f123897a2d8bb6a0515eff7f2cc411e3332ea2"
        )

    def test_fig2_grid_digest(self):
        assert grid_digest(FIG2_GRID) == (
            "8faaaa6faf4d57bf53b4ee66ab242c29fcd30ce3957d7ade0d198d49c7d80f7a"
        )

    def test_ledger_spec_key(self):
        assert LedgerBackedCache(tech=CMOS025)._spec_key(_mdac()) == (
            "0bf2214ee4e8e1bdcbaef93ff16706cd3d5678b7057974d97c788ca2c8ff3b1f"
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
            "4cca5f20d13dae6aa22f849cde245fc66610cf9f6a1addfb7a137249e2480c65"
        )

    def test_optimize_job_key(self):
        request = parse_request(
            {"kind": "optimize", "spec": {"resolution_bits": 12}, "mode": "synthesis"}
        )
        assert request.key == (
            "480535bfb28bfac6c915bda46502d0a8c036066ee07900360ae1516a2e30de39"
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
