"""Checkpointed-campaign benchmark: what interruption tolerance costs.

Three claims, measured on a synthesis grid:

* **checkpointing is cheap** — a store-backed campaign (manifest +
  per-scenario checkpoints + final store) pays only a small overhead over
  an in-memory run of the same grid;
* **resume is near-free** — resuming a completed store replays every
  scenario from its checkpoint (no backend dispatch, no synthesis) and
  reproduces the results byte-identically;
* **broker acks resume mid-scenario work** — with the ``broker`` backend
  on a directory, a rerun of an *unfinished* scenario replays its
  completed synthesis tasks from ack files instead of re-searching.
"""

import time

from repro.campaign import CampaignGrid, run_campaign
from repro.engine.broker import BrokerBackend
from repro.engine.config import FlowConfig
from repro.engine.scheduler import run_synthesis_job
from tests.conftest import broker_workers

GRID = CampaignGrid(
    resolutions=(9, 10, 11),
    modes=("synthesis",),
)

#: Moderate budgets: enough search to make replay economics visible.
BUDGET = 400
RETARGET_BUDGET = 80


def _config(**overrides) -> FlowConfig:
    base = dict(
        budget=BUDGET, retarget_budget=RETARGET_BUDGET, verify_transient=False
    )
    base.update(overrides)
    return FlowConfig(**base)


def test_checkpoint_overhead_and_resume(tmp_path, once):
    # In-memory reference: no store, no checkpoints.
    start = time.perf_counter()
    plain = run_campaign(GRID, config=_config())
    plain_s = time.perf_counter() - start

    # Checkpointed run of the same grid.
    store = tmp_path / "store"
    start = time.perf_counter()
    checkpointed = run_campaign(GRID, config=_config(), store_dir=store)
    checkpointed_s = time.perf_counter() - start

    # Full-replay resume: every scenario comes back from its checkpoint.
    start = time.perf_counter()
    resumed = run_campaign(GRID, config=_config(), store_dir=store, resume=True)
    resume_s = time.perf_counter() - start

    print()
    print(f"Resume benchmark — {GRID.size} scenarios")
    print(f"  in-memory:     {plain_s:7.2f} s")
    print(
        f"  checkpointed:  {checkpointed_s:7.2f} s  "
        f"({checkpointed_s / plain_s - 1:+.1%} overhead)"
    )
    print(
        f"  full resume:   {resume_s:7.3f} s  "
        f"({plain_s / max(resume_s, 1e-9):.0f}x vs executing, "
        f"{resumed.replayed_scenarios}/{GRID.size} replayed)"
    )

    assert checkpointed.records == plain.records
    assert resumed.records == checkpointed.records
    assert resumed.replayed_scenarios == GRID.size
    # Checkpointing may not dominate the run; replay must be near-free.
    assert checkpointed_s < 1.5 * plain_s
    assert resume_s < 0.2 * plain_s

    once(run_campaign, GRID, config=_config(), store_dir=store, resume=True)


def test_queue_ack_replay_skips_finished_tasks(tmp_path, once):
    # One scenario's synthesis plan, dispatched twice through the same
    # broker directory, drained by two worker threads: the second dispatch
    # must replay every task.
    from repro.enumeration.candidates import PipelineCandidate
    from repro.specs import AdcSpec, plan_stages
    from repro.engine.scheduler import SynthesisJob

    spec = AdcSpec(resolution_bits=11)
    plan = plan_stages(spec, PipelineCandidate((3, 2, 2), 11, 6))
    jobs = [
        SynthesisJob(
            spec=mdac,
            tech=spec.tech,
            budget=BUDGET,
            seed=1,
            verify_transient=False,
        )
        for mdac in plan.mdacs
    ]

    queue = tmp_path / "queue"
    with broker_workers(queue) as broker, BrokerBackend(broker) as backend:
        start = time.perf_counter()
        first = backend.map(run_synthesis_job, jobs)
        cold_s = time.perf_counter() - start
        executed = backend.dispatched

    with broker_workers(queue) as broker, BrokerBackend(broker) as backend:
        start = time.perf_counter()
        second = backend.map(run_synthesis_job, jobs)
        replay_s = time.perf_counter() - start
        replayed = backend.replayed

    print()
    print(f"Broker ack replay — {len(jobs)} synthesis tasks")
    print(f"  cold:    {cold_s:7.2f} s  ({executed} executed)")
    print(
        f"  replay:  {replay_s:7.3f} s  ({replayed} acks, "
        f"{cold_s / max(replay_s, 1e-9):.0f}x)"
    )

    # Deduplicated job list: every distinct task executed once cold, and
    # the second dispatch touched no search at all.
    assert executed > 0
    assert replayed == executed
    assert [r.final.sizing for r in second] == [r.final.sizing for r in first]
    assert replay_s < 0.2 * cold_s

    with broker_workers(queue) as broker, BrokerBackend(broker) as backend:
        once(backend.map, run_synthesis_job, jobs)
