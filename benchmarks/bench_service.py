"""Service benchmark: submission latency, coalescing hit rate, throughput.

Three claims, measured against a live in-process server
(:class:`repro.service.BackgroundServer`):

* **Coalescing** — N identical *concurrent* synthesis submissions
  collapse onto one job: one scheduler execution, exactly **one cold
  synthesis**, an (N-1)/N coalescing hit rate, and byte-identical
  artifacts for every client.  This is the service-level analogue of the
  campaign ledger's block reuse — whole requests dedup, not just blocks.
* **Submission latency** — a ``POST /v1/jobs`` round-trip is milliseconds:
  admission is a digest + a queue insert, never a computation.
* **Sustained throughput** — a stream of distinct analytic campaign jobs
  clears at multiple jobs/second end to end (submit -> schedule ->
  execute -> persist results).

Runs standalone through ``benchmarks/run_all.py`` (the ``service`` stage,
asserted by ``--check``) and as a pytest-benchmark case::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
"""

from __future__ import annotations

import json
import statistics
import tempfile
import threading
import time

#: Identical concurrent submissions for the coalescing measurement.
IDENTICAL = 8

#: Distinct analytic jobs for the latency/throughput measurement.
DISTINCT = 16

#: The coalescing workload: a small synthesis campaign (one scenario, one
#: cold synthesis at this budget — see the assertion below).
SYNTH_JOB = {
    "kind": "campaign",
    "grid": {"resolutions": [10], "modes": ["synthesis"]},
    "config": {"budget": 80, "retarget_budget": 30, "verify_transient": False},
}


def _direct_reference() -> bytes:
    """``results.jsonl`` bytes of a *direct* run of the coalescing grid.

    The service's served artifact must equal this byte-for-byte — the
    end-to-end identity contract, not just internal read stability.
    """
    import tempfile
    from pathlib import Path

    from repro.campaign import run_campaign
    from repro.service.jobs import build_config, build_grid

    with tempfile.TemporaryDirectory(prefix="repro-bench-direct-") as out:
        run_campaign(
            build_grid(SYNTH_JOB["grid"]),
            build_config(SYNTH_JOB["config"]),
            store_dir=out,
        )
        return (Path(out) / "results.jsonl").read_bytes()


def _distinct_job(index: int) -> dict:
    """A cheap analytic campaign job unique to ``index``."""
    return {
        "kind": "campaign",
        "grid": {"resolutions": [10, 11], "sample_rates_hz": [(20 + index) * 1e6]},
        "client": f"bench-{index % 4}",
    }


def run_service_benchmark(
    identical: int = IDENTICAL, distinct: int = DISTINCT
) -> dict:
    """Measure the three claims against a fresh background server."""
    from repro.service import BackgroundServer, ServiceClient

    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as root:
        with BackgroundServer(store_dir=root, job_workers=2) as server:
            client = ServiceClient(server.base_url)

            # -- coalescing: N identical concurrent synthesis submissions --
            ids: list[str] = []
            lock = threading.Lock()

            def submit_identical() -> None:
                job_id = client.submit(SYNTH_JOB)["job"]["id"]
                with lock:
                    ids.append(job_id)

            threads = [
                threading.Thread(target=submit_identical)
                for _ in range(identical)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            client.wait(ids[0], timeout=600)
            synth_wall = time.perf_counter() - start
            stats = client.stats()
            served = client.artifact(ids[0], "results.jsonl")
            record = json.loads(served)
            coalescing = {
                "submissions": identical,
                "unique_jobs": len(set(ids)),
                "executions": stats["executions"],
                "cold_synthesis_runs": record["cold_runs"],
                "hit_rate": round(stats["coalesced"] / stats["submissions"], 3),
                "byte_identical_to_direct": served == _direct_reference(),
                "wall_s": round(synth_wall, 3),
            }

            # -- latency + sustained throughput on distinct analytic jobs --
            latencies: list[float] = []
            job_ids: list[str] = []
            start = time.perf_counter()
            for index in range(distinct):
                tick = time.perf_counter()
                job_ids.append(client.submit(_distinct_job(index))["job"]["id"])
                latencies.append(time.perf_counter() - tick)
            for job_id in job_ids:
                client.wait(job_id, timeout=600)
            wall = time.perf_counter() - start

        return {
            "coalescing": coalescing,
            "submission_latency_ms": {
                "median": round(statistics.median(latencies) * 1e3, 2),
                "p_max": round(max(latencies) * 1e3, 2),
            },
            "throughput": {
                "jobs": distinct,
                "wall_s": round(wall, 3),
                "jobs_per_s": round(distinct / wall, 1),
            },
        }


def check_service_report(report: dict) -> list[str]:
    """The ``run_all.py --check`` assertions; returns failure strings."""
    failures: list[str] = []
    coalescing = report["coalescing"]
    if coalescing["unique_jobs"] != 1:
        failures.append(
            f"{coalescing['submissions']} identical submissions produced "
            f"{coalescing['unique_jobs']} jobs (want 1)"
        )
    if coalescing["executions"] != 1:
        failures.append(
            f"coalesced job executed {coalescing['executions']} times (want 1)"
        )
    if coalescing["cold_synthesis_runs"] != 1:
        failures.append(
            "coalesced job performed "
            f"{coalescing['cold_synthesis_runs']} cold syntheses (want exactly 1)"
        )
    if not coalescing["byte_identical_to_direct"]:
        failures.append(
            "served results.jsonl differs from a direct run_campaign store"
        )
    return failures


def test_service_benchmark(once):
    report = once(run_service_benchmark)

    print()
    coalescing = report["coalescing"]
    latency = report["submission_latency_ms"]
    throughput = report["throughput"]
    print(
        f"Service benchmark — {coalescing['submissions']} identical + "
        f"{throughput['jobs']} distinct jobs"
    )
    print(
        f"  coalescing:  {coalescing['submissions']} submissions -> "
        f"{coalescing['unique_jobs']} job, {coalescing['executions']} execution, "
        f"{coalescing['cold_synthesis_runs']} cold synthesis "
        f"(hit rate {coalescing['hit_rate']:.0%}, {coalescing['wall_s']} s)"
    )
    print(
        f"  latency:     median {latency['median']} ms / "
        f"max {latency['p_max']} ms per submission"
    )
    print(
        f"  throughput:  {throughput['jobs']} jobs in {throughput['wall_s']} s "
        f"({throughput['jobs_per_s']} jobs/s)"
    )

    assert check_service_report(report) == []
    expected_rate = (coalescing["submissions"] - 1) / coalescing["submissions"]
    assert coalescing["hit_rate"] == round(expected_rate, 3)
    assert throughput["jobs_per_s"] > 1.0
