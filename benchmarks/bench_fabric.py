"""Fabric benchmark: lease overhead, fleet throughput scaling, reclaim time.

Three claims, measured against a live in-process server
(:class:`repro.service.BackgroundServer`) and real ``repro-adc worker``
subprocesses — the same deployment shape as a two-terminal quickstart:

* **Lease overhead** — one task's full broker round trip (submit ->
  lease -> heartbeat -> ack -> result) over HTTP is milliseconds: the
  fabric taxes each task with protocol chatter, not computation.
* **Throughput scales with the fleet** — a batch of fixed-service-time
  probe tasks (:func:`repro.engine.worker.fabric_probe`) dispatched
  through ``BACKENDS['broker']`` clears at least 1.5x faster with 2
  workers than with 1 (the ``--check`` floor; ideal is 2x, the gap is
  lease/poll overhead).  The probe's service time is a sleep, so the
  measurement captures the fabric's dispatch concurrency rather than
  the host's core count — a one-core CI runner still shows fleet
  scaling, exactly as two workers on two hosts overlap real syntheses.
  Separately, a fleet of 2 workers runs real synthesis jobs and must
  reproduce the sizing digests of a local serial run bit-for-bit.
* **Reclaim is bounded by the TTL** — SIGKILL a worker holding a lease
  and the task is re-leasable within a small multiple of the server's
  lease TTL (no heartbeats arrive, so expiry is the only signal).

Runs standalone through ``benchmarks/run_all.py`` (the ``fabric`` stage,
asserted by ``--check``)::

    PYTHONPATH=src python benchmarks/run_all.py --smoke --check
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: The server's lease TTL for the benchmark: small enough that the
#: reclaim-after-SIGKILL measurement finishes in seconds, large enough
#: that a healthy worker's heartbeats (TTL/3 cadence) never race it.
LEASE_TTL = 2.0

#: Trivial round trips for the lease-overhead measurement.
OVERHEAD_TRIPS = 15


def _repo_src() -> str:
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


def _spawn_worker(base_url: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--broker",
            base_url,
            "--poll",
            "0.02",
            "--ttl",
            str(LEASE_TTL),
        ],
        env={**os.environ, "PYTHONPATH": _repo_src()},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _stop_workers(workers: list[subprocess.Popen]) -> None:
    for proc in workers:
        if proc.poll() is None:
            proc.terminate()
    for proc in workers:
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _probe_tasks(count: int, busy_s: float, phase: str) -> list[dict]:
    """``count`` distinct probe tasks holding a worker for ``busy_s``."""
    return [
        {"phase": phase, "index": i, "busy_s": busy_s} for i in range(count)
    ]


def _synthesis_jobs(count: int, budget: int, seed_base: int) -> list:
    """``count`` distinct-seed synthesis jobs on one 10-bit MDAC spec."""
    from repro.engine.scheduler import SynthesisJob
    from repro.enumeration.candidates import enumerate_candidates
    from repro.specs import AdcSpec, plan_stages
    from repro.tech import CMOS025

    spec = AdcSpec(resolution_bits=10)
    plan = plan_stages(spec, enumerate_candidates(10)[0])
    return [
        SynthesisJob(
            spec=plan.mdacs[0],
            tech=CMOS025,
            budget=budget,
            seed=seed_base + i,
            verify_transient=False,
        )
        for i in range(count)
    ]


def _measure_fleet(base_url: str, tasks: int, busy_s: float, workers: int) -> float:
    """Wall seconds for N warm workers to clear ``tasks`` probe tasks."""
    from repro.engine.broker import BrokerBackend
    from repro.engine.worker import fabric_probe

    procs = [_spawn_worker(base_url) for _ in range(workers)]
    try:
        backend = BrokerBackend(broker_url=base_url, poll_interval=0.02)
        # Warm up: one probe per worker (distinct phase tag, so nothing
        # replays into the measurement) so worker process start-up never
        # lands inside the measured window.
        backend.map(
            fabric_probe, _probe_tasks(workers, busy_s, f"warmup-{workers}")
        )
        start = time.perf_counter()
        backend.map(fabric_probe, _probe_tasks(tasks, busy_s, f"measure-{workers}"))
        return time.perf_counter() - start
    finally:
        _stop_workers(procs)


def _fleet_identity(base_url: str, jobs: list) -> bool:
    """2 workers run real synthesis jobs; digests must match a local run."""
    from repro.engine.broker import BrokerBackend
    from repro.engine.persist import sizing_digest
    from repro.engine.scheduler import run_synthesis_job

    procs = [_spawn_worker(base_url) for _ in range(2)]
    try:
        backend = BrokerBackend(broker_url=base_url, poll_interval=0.02)
        fleet = backend.map(run_synthesis_job, jobs)
    finally:
        _stop_workers(procs)
    local = [run_synthesis_job(job) for job in jobs]
    return [sizing_digest(r) for r in fleet] == [
        sizing_digest(r) for r in local
    ]


def _lease_overhead(base_url: str, trips: int) -> dict:
    """Median/max ms of one full task round trip over the HTTP broker."""
    from repro.engine.broker import HttpBroker, task_key
    from repro.engine.persist import digest
    from repro.service import wire

    broker = HttpBroker(base_url)
    walls = []
    for i in range(trips):
        task = {"overhead-trip": i}
        key = task_key(digest, task)
        tick = time.perf_counter()
        broker.submit(key, wire.encode_task(digest, task))
        leased = broker.lease("bench-overhead")
        assert leased is not None and leased[0] == key
        assert broker.heartbeat(key, "bench-overhead")
        broker.ack(key, wire.encode_result(digest(task)), "bench-overhead")
        assert broker.result(key) is not None
        walls.append(time.perf_counter() - tick)
    return {
        "trips": trips,
        "median_ms": round(statistics.median(walls) * 1e3, 2),
        "max_ms": round(max(walls) * 1e3, 2),
    }


def _reclaim_after_sigkill(base_url: str) -> dict:
    """Seconds from SIGKILLing a lease-holding worker to re-leasability."""
    from repro.engine.broker import HttpBroker, task_key
    from repro.engine.persist import digest
    from repro.service import wire

    broker = HttpBroker(base_url)
    task = {"reclaim-probe": 1}
    key = task_key(digest, task)
    broker.submit(key, wire.encode_task(digest, task))
    victim = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import time\n"
            "from repro.engine.broker import HttpBroker\n"
            f"b = HttpBroker({base_url!r})\n"
            "assert b.lease('victim') is not None\n"
            "print('leased', flush=True)\n"
            "time.sleep(600)\n",
        ],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": _repo_src()},
    )
    try:
        assert victim.stdout.readline().strip() == b"leased"
        victim.kill()
        victim.wait()
        start = time.perf_counter()
        deadline = start + LEASE_TTL * 5
        leased = None
        while leased is None and time.perf_counter() < deadline:
            leased = broker.lease("survivor")
            if leased is None:
                time.sleep(0.05)
        wall = time.perf_counter() - start
        reclaimed = leased is not None and leased[0] == key
        if reclaimed:
            broker.ack(key, wire.encode_result(digest(task)), "survivor")
        return {
            "lease_ttl_s": LEASE_TTL,
            "reclaimed": reclaimed,
            "seconds_to_reclaim": round(wall, 3),
        }
    finally:
        victim.kill()
        victim.wait()


def run_fabric_benchmark(
    tasks: int = 8,
    busy_s: float = 0.25,
    identity_jobs: int = 4,
    budget: int = 60,
) -> dict:
    """Measure the three fabric claims against a fresh background server."""
    from repro.service import BackgroundServer

    with tempfile.TemporaryDirectory(prefix="repro-bench-fabric-") as root:
        with BackgroundServer(store_dir=root, lease_ttl=LEASE_TTL) as server:
            overhead = _lease_overhead(server.base_url, OVERHEAD_TRIPS)
            wall_one = _measure_fleet(server.base_url, tasks, busy_s, workers=1)
            wall_two = _measure_fleet(server.base_url, tasks, busy_s, workers=2)
            identical = _fleet_identity(
                server.base_url,
                _synthesis_jobs(identity_jobs, budget, seed_base=100),
            )
            reclaim = _reclaim_after_sigkill(server.base_url)

        return {
            "lease_overhead": overhead,
            "throughput": {
                "tasks": tasks,
                "task_service_s": busy_s,
                "one_worker": {
                    "wall_s": round(wall_one, 3),
                    "tasks_per_s": round(tasks / wall_one, 2),
                },
                "two_workers": {
                    "wall_s": round(wall_two, 3),
                    "tasks_per_s": round(tasks / wall_two, 2),
                },
                "speedup_two_vs_one": round(wall_one / wall_two, 2),
            },
            "identity": {
                "synthesis_jobs": identity_jobs,
                "budget": budget,
                "identical_to_local": identical,
            },
            "reclaim": reclaim,
        }


def check_fabric_report(report: dict) -> list[str]:
    """``--check`` failures for the fabric stage (empty list = pass)."""
    failures = []
    speedup = report["throughput"]["speedup_two_vs_one"]
    if speedup < 1.5:
        failures.append(
            "regression: 2-worker fleet under its 1.5x throughput floor "
            f"vs 1 worker ({speedup}x)"
        )
    if not report["identity"]["identical_to_local"]:
        failures.append(
            "fleet synthesis results diverged from the local serial run "
            "(sizing digests differ)"
        )
    if not report["reclaim"]["reclaimed"]:
        failures.append(
            "a SIGKILLed worker's lease was never reclaimed "
            f"(waited {report['reclaim']['seconds_to_reclaim']}s)"
        )
    elif report["reclaim"]["seconds_to_reclaim"] > LEASE_TTL * 3:
        failures.append(
            "reclaim after SIGKILL took "
            f"{report['reclaim']['seconds_to_reclaim']}s "
            f"(> 3x the {LEASE_TTL}s lease TTL)"
        )
    return failures


if __name__ == "__main__":
    import json

    print(json.dumps(run_fabric_benchmark(), indent=2))
