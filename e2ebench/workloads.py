"""The workloads and their output checks.

Every campaign workload runs the paper's Fig. 2 grid: K = 10..13 x
{analytic, synthesis, behavioral} at 40 MSPS, nominal corner, budgets
400/80, transient verification on, 256 behavioral draws.

* ``fig2-cold``: the grid on the serial backend with an empty cache.
* ``fig2-warm``: the grid rerun against a block cache filled during set-up.
  Its traced run also takes the service layer's split (see below).
* ``fig2-cold-process``: ``fig2-cold`` on ``--backend process --workers 2``.
* ``service-mix``: analytic Fig. 2 campaign jobs through a live in-process
  HTTP service, two closed-loop clients; every 4th job resubmits a done one.

Only the first two are in ``BENCHMARK.json``.  On a 2-CPU box shared with
other machines the last two spread by 20-35% between runs even after speed
scaling (thread hand-offs and two busy CPUs), beyond any regression bound;
they stay runnable for manual measurement.

Wall times are scaled by :class:`~stats.SpeedProbe` to a reference machine
speed.  The synthesis seeds stay at the flow defaults (1 and 7): they
decide how much search a campaign does, and across seeds the cold wall
time moves by 40%.  ``--seed`` sets the behavioral draw seed and the
service job order and rates.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import PARENT_TARGETS, SERIAL_TARGETS, layer_metrics, store_counters
from stats import PeakRss, SpeedProbe, median, percentile
from tracer import Tracer, self_times

import repro.campaign.runner as runner
from repro.campaign.grid import CampaignGrid
from repro.engine.config import FlowConfig

FIG2_GRID = CampaignGrid(
    resolutions=(10, 11, 12, 13),
    sample_rates_hz=(40e6,),
    modes=("analytic", "synthesis", "behavioral"),
)
FIG2_LABELS = tuple(s.label for s in FIG2_GRID.expand())
BEHAVIORAL_DRAWS = 256
PROCESS_WORKERS = 2

#: Record fields that describe cache accounting rather than the design.
CACHE_FIELDS = (
    "cold_runs",
    "retargeted_runs",
    "shared_hits",
    "persistent_hits",
    "pool_warm_starts",
    "pool_escalations",
)

#: Service-mix shape: client threads, and every Nth job resubmits a done one.
SERVICE_CLIENTS = 2
SERVICE_JOB_WORKERS = 2
RESUBMIT_EVERY = 4
#: Service jobs compared with a direct ``run_campaign`` after the loop.
SERVICE_SAMPLES = 3
#: Jobs a p95 needs: ten beyond it (see ``stats.percentile``), with margin.
P95_JOBS = 220
#: Length of the service phase in ``fig2-warm``'s traced run [s].
SERVICE_SPLIT_S = 5.0


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Raw measurements behind the reported metrics, for the record.
    notes: dict[str, float] = field(default_factory=dict)

    def record(self, problems: list[str]) -> None:
        """Count one operation; it failed if any check reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Context:
    root: Path
    work: Path
    out: Path
    seed: int
    seconds: float
    trace: bool


# -- set-up -------------------------------------------------------------------


#: Run in a fresh interpreter: the speed-scaled time to import the stack.
_IMPORT_PROBE = """
import time, stats
probe = stats.SpeedProbe()
with probe:
    start = time.perf_counter()
    import repro.campaign.runner, repro.service.server
    seconds = time.perf_counter() - start
print(seconds * probe.factor())
"""


def import_seconds(ctx: Context, probes: int = 3) -> float:
    """Median over fresh interpreters of the stack's import time.

    Each interpreter scales its own import time by its own
    :class:`~stats.SpeedProbe` (numpy, which the probe needs, loads first
    and is not counted).
    """
    paths = os.pathsep.join((str(ctx.root / "src"), str(Path(__file__).parent)))
    env = dict(os.environ, PYTHONPATH=paths)
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ctx.root,
            env=env,
            check=True,
            timeout=120,
            capture_output=True,
            text=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return median(times)


# -- campaign stores ----------------------------------------------------------


def fig2_config(seed: int, backend: str = "serial", cache_dir=None) -> FlowConfig:
    return FlowConfig(
        backend=backend,
        max_workers=PROCESS_WORKERS if backend == "process" else None,
        cache_dir=None if cache_dir is None else str(cache_dir),
        budget=400,
        retarget_budget=80,
        verify_transient=True,
        behavioral_draws=BEHAVIORAL_DRAWS,
        behavioral_seed=seed,
    )


def run_fig2(
    config: FlowConfig, store: Path, probe: SpeedProbe, rss: PeakRss | None = None
) -> tuple[float, float]:
    """One Fig. 2 campaign into a fresh ``store``.

    Returns its wall time, raw and scaled by ``probe`` (see
    :class:`~stats.SpeedProbe`).
    """
    shutil.rmtree(store, ignore_errors=True)
    progress = rss.sample if rss is not None else None
    with probe:
        mark = probe.mark()
        start = time.perf_counter()
        runner.run_campaign(FIG2_GRID, config, progress=progress, store_dir=store)
        raw = time.perf_counter() - start
    return raw, raw * probe.factor(mark)


def store_digest(store: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((store / name).read_bytes()).hexdigest()
        for name in ("results.jsonl", "report.txt")
    }


def read_records(store: Path) -> list[dict]:
    lines = (store / "results.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def design_projection(store: Path) -> list[dict]:
    """Records without their cache accounting: what a cold and warm run share."""
    return [
        {k: v for k, v in record.items() if k not in CACHE_FIELDS}
        for record in read_records(store)
    ]


def read_store_counters(store: Path) -> dict[str, float]:
    return store_counters(json.loads((store / "metrics.json").read_text()))


def check_fig2_store(store: Path, warm: bool) -> list[str]:
    """Structural checks on one Fig. 2 campaign store."""
    try:
        records = read_records(store)
        report = (store / "report.txt").read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        return [f"{store.name}: unreadable store ({exc})"]
    problems: list[str] = []
    labels = tuple(r.get("label") for r in records)
    if labels != FIG2_LABELS:
        return [f"{store.name}: scenarios {labels} != {FIG2_LABELS}"]
    synthesis = {r["resolution_bits"]: r for r in records if r["mode"] == "synthesis"}
    for record in records:
        label = record["label"]
        if label not in report:
            problems.append(f"{label}: missing from report.txt")
        if record["winner"] not in {name for name, _ in record["rankings"]}:
            problems.append(f"{label}: winner {record['winner']} not ranked")
        if record["mode"] == "behavioral":
            verdict = record.get("behavioral") or {}
            source = synthesis[record["resolution_bits"]]
            if verdict.get("draws") != BEHAVIORAL_DRAWS:
                problems.append(f"{label}: {verdict.get('draws')} draws")
            if verdict.get("winner_source") != "synthesis" or (
                record["winner"] != source["winner"]
            ):
                problems.append(f"{label}: does not verify the synthesis winner")
    searches = sum(r["cold_runs"] + r["retargeted_runs"] for r in synthesis.values())
    if warm:
        for record in synthesis.values():
            if record["cold_runs"] or record["retargeted_runs"] or record["pool_escalations"]:
                problems.append(
                    f"{record['label']}: warm rerun searched "
                    f"({record['cold_runs']} cold, {record['retargeted_runs']} "
                    f"retargeted, {record['pool_escalations']} escalated)"
                )
    elif searches == 0 or any(r["persistent_hits"] for r in synthesis.values()):
        problems.append(f"{store.name}: cold run did not search ({searches} searches)")
    return problems


def agree_with_reference(ctx: Context, kind: str, digest: dict) -> list[str]:
    """Compare ``digest`` with the first store of this kind and seed.

    Every run in a checkout that builds a ``kind`` store for a seed leaves
    its digest under ``<out>/reference``; later runs of any workload or
    backend must reproduce it byte for byte.
    """
    path = ctx.out / "reference" / f"{kind}-seed{ctx.seed}.json"
    if path.exists():
        reference = json.loads(path.read_text())
        if reference != digest:
            return [f"{kind} store differs from the earlier run's ({path.name})"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digest, sort_keys=True))
    os.replace(tmp, path)
    return []


def campaign_layer_metrics(
    tracer: Tracer, store: Path, units: int, workers: int
) -> dict[str, float]:
    """Per-layer metrics of traced campaigns plus their store counters."""
    metrics = layer_metrics(tracer, units)
    counters = read_store_counters(store)
    job_seconds = counters.pop("job_seconds")
    metrics.update(counters)
    hits = counters["cache.persistent_hits"] + counters["cache.shared_hits"]
    searches = counters["cache.cold_runs"] + counters["cache.retargeted_runs"]
    metrics["cache.hit_ratio"] = hits / (hits + searches) if hits + searches else 0.0
    map_s = metrics["backend.map_s"]
    metrics["backend.busy_frac"] = job_seconds / (workers * map_s) if map_s else 0.0
    metrics["campaign.infeasible_points"] = sum(
        1 for r in read_records(store) if r["mode"] == "synthesis" and not r["all_feasible"]
    )
    metrics["counters_backend_consistent"] = float(
        counters["campaign.scenarios"] == len(FIG2_LABELS)
    )
    return metrics


def self_time_problems(tracer: Tracer, wall: float) -> list[str]:
    """Layer self times plus the unwrapped remainder must add up to the wall."""
    self_s, _, roots = self_times(tracer.spans)
    remainder = wall - roots
    total = sum(self_s.values()) + remainder
    if remainder < 0 or abs(total - wall) > 1e-6 * wall:
        return [f"self times {total:.6f} s + remainder != traced wall {wall:.6f} s"]
    return []


# -- campaign workloads ------------------------------------------------------


def cold_workload(ctx: Context, backend: str) -> Outcome:
    outcome = Outcome()
    setup = import_seconds(ctx)
    config = fig2_config(ctx.seed, backend)
    workers = PROCESS_WORKERS if backend == "process" else 1
    rss, probe = PeakRss(), SpeedProbe()
    first = ctx.work / "cold-0"
    runs = [run_fig2(config, first, probe, rss)]
    digest = store_digest(first)
    problems = check_fig2_store(first, warm=False)
    if not problems:
        problems = agree_with_reference(ctx, "fig2-cold", digest)
    outcome.record(problems)

    if ctx.trace:
        tracer = Tracer()
        traced = ctx.work / "cold-traced"
        tracer.install(SERIAL_TARGETS if backend == "serial" else PARENT_TARGETS)
        try:
            traced_raw, traced_wall = run_fig2(config, traced, probe)
        finally:
            tracer.restore()
        problems = check_fig2_store(traced, warm=False)
        if store_digest(traced) != digest:
            problems.append("traced store differs from the untraced one")
        problems += self_time_problems(tracer, traced_raw)
        outcome.record(problems)
        outcome.per_layer = campaign_layer_metrics(tracer, traced, 1, workers)
        outcome.per_layer["obs.trace_overhead_frac"] = traced_wall / runs[0][1] - 1.0
        outcome.notes = {"raw_wall_s": runs[0][0], "traced_raw_wall_s": traced_raw}
        tracer.write(ctx.out / f"spans-fig2-cold-{backend}-seed{ctx.seed}.jsonl")
        return outcome

    start = time.perf_counter()
    while time.perf_counter() - start + runs[0][0] < ctx.seconds:
        store = ctx.work / f"cold-{len(runs)}"
        runs.append(run_fig2(config, store, probe, rss))
        problems = check_fig2_store(store, warm=False)
        if store_digest(store) != digest:
            problems.append(f"{store.name} differs from the run's first store")
        outcome.record(problems)
        shutil.rmtree(store, ignore_errors=True)
    walls = [wall for _, wall in runs]
    outcome.end_to_end = {
        "wall_s": median(walls),
        "setup_s": setup,
        "peak_rss_mb": rss.megabytes(),
        "jobs_per_s": len(walls) / sum(walls),
    }
    outcome.notes = {"raw_wall_s": median(raw for raw, _ in runs)}
    return outcome


def warm_workload(ctx: Context) -> Outcome:
    outcome = Outcome()
    imports = import_seconds(ctx)
    cache = ctx.work / "cache"
    fill = ctx.work / "fill"
    rss, probe = PeakRss(), SpeedProbe()
    # The fill is set-up, so it runs on the process pool to save time; the
    # store must still match a serial cold run of this seed byte for byte.
    # The probe sees only this process's share of the fill's CPU time.
    fill_config = fig2_config(ctx.seed, backend="process", cache_dir=cache)
    fill_raw, fill_wall = run_fig2(fill_config, fill, probe, rss)
    problems = check_fig2_store(fill, warm=False)
    if not problems:
        problems = agree_with_reference(ctx, "fig2-cold", store_digest(fill))
    outcome.record(problems)
    fill_designs = design_projection(fill)

    config = fig2_config(ctx.seed, cache_dir=cache)
    store = ctx.work / "warm"
    first_digest: dict[str, str] = {}

    def rerun() -> tuple[float, float]:
        timing = run_fig2(config, store, probe, rss)
        problems = check_fig2_store(store, warm=True)
        digest = store_digest(store)
        if not first_digest:
            first_digest.update(digest)
            if design_projection(store) != fill_designs:
                problems.append("warm designs differ from the cold fill's")
            elif not problems:
                problems = agree_with_reference(ctx, "fig2-warm", digest)
        elif digest != first_digest:
            problems.append("warm store differs from the run's first warm store")
        outcome.record(problems)
        return timing

    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    runs = loop_for(budget, rerun)
    walls = [wall for _, wall in runs]
    outcome.notes = {"raw_wall_s": median(raw for raw, _ in runs), "raw_fill_s": fill_raw}
    if ctx.trace:
        tracer = Tracer()
        tracer.install(SERIAL_TARGETS)
        try:
            traced = loop_for(budget, rerun)
        finally:
            tracer.restore()
        outcome.per_layer = campaign_layer_metrics(tracer, store, len(traced), 1)
        outcome.per_layer["obs.trace_overhead_frac"] = (
            median(wall for _, wall in traced) / median(walls) - 1.0
        )
        tracer.write(ctx.out / f"spans-fig2-warm-seed{ctx.seed}.jsonl")
        # The service layer has no steady workload of its own (see
        # BENCHMARK.json); its client-side split is taken here.
        service = drive_service(ctx, outcome, SERVICE_SPLIT_S, P95_JOBS)
        outcome.per_layer.update(service_layers(service.results))
        return outcome
    outcome.end_to_end = {
        "wall_s": median(walls),
        "setup_s": imports + fill_wall,
        "peak_rss_mb": rss.megabytes(),
        "jobs_per_s": len(walls) / sum(walls),
    }
    return outcome


def loop_for(seconds: float, step) -> list[float]:
    """Call ``step`` until ``seconds`` have passed (at least once)."""
    values = []
    start = time.perf_counter()
    while not values or time.perf_counter() - start < seconds:
        values.append(step())
    return values


# -- service-mix -----------------------------------------------------------


def start_server(root: Path):
    """A started in-process service; returns (server, start seconds)."""
    from repro.service import BackgroundServer, ServiceClient

    start = time.perf_counter()
    server = BackgroundServer(store_dir=root, job_workers=SERVICE_JOB_WORKERS)
    ServiceClient(server.base_url, timeout=60.0).health()
    return server, time.perf_counter() - start


class ServiceMix:
    """Closed-loop clients submitting analytic Fig. 2 campaign jobs."""

    def __init__(self, base_url: str, seed: int):
        from repro.service import ServiceClient

        self.client = ServiceClient(base_url, timeout=60.0)
        self.rng = random.Random(seed)
        #: Distinct rate offsets [Hz] in seeded order: job i runs at 40 MHz + offsets[i].
        self.offsets = self.rng.sample(range(1, 1_000_000), 20_000)
        self.lock = threading.Lock()
        self.index = 0
        self.done: list[tuple[dict, str]] = []
        self.samples: list[dict] = []

    def body(self, index: int) -> dict:
        return {
            "kind": "campaign",
            "grid": {
                "resolutions": list(FIG2_GRID.resolutions),
                "sample_rates_hz": [40e6 + self.offsets[index]],
            },
            "client": f"client-{index % SERVICE_CLIENTS}",
        }

    def _next(self) -> tuple[dict, bool]:
        with self.lock:
            index = self.index
            self.index += 1
            if index % RESUBMIT_EVERY == RESUBMIT_EVERY - 1 and self.done:
                return self.rng.choice(self.done)[0], True
            return self.body(index), False

    def operation(self) -> dict:
        """Submit, stream to done, fetch ``results.jsonl``; check the result."""
        from repro.service.jobs import TERMINAL_STATES

        body, resubmit = self._next()
        t0 = time.perf_counter()
        reply = self.client.submit(body)
        t_submit = time.perf_counter()
        job = reply["job"]
        t_running = t_done = None
        final: dict = {}
        for event in self.client.watch(job["id"]):
            now = time.perf_counter()
            state = event.get("state")
            if t_running is None and state in ("running", "done"):
                t_running = now
            if state in TERMINAL_STATES:
                t_done, final = now, event
                break
        data = self.client.artifact(job["id"], "results.jsonl")
        t_end = time.perf_counter()
        t_done = t_done or t_end
        t_running = t_running or t_done
        problems = []
        if final.get("state") != "done":
            problems.append(f"job {job['id']} ended {final.get('state')}")
        if reply["coalesced"] != resubmit:
            problems.append(f"job {job['id']}: coalesced={reply['coalesced']}")
        records = [json.loads(line) for line in data.decode().splitlines() if line]
        rate = body["grid"]["sample_rates_hz"][0]
        if [(r["resolution_bits"], r["sample_rate_hz"], r["mode"]) for r in records] != [
            (k, rate, "analytic") for k in FIG2_GRID.resolutions
        ]:
            problems.append(f"job {job['id']}: wrong results.jsonl")
        sample = {
            "problems": problems,
            "latency": t_end - t0,
            "submit": t_submit - t0,
            "queue_wait": t_running - t0,
            "run": t_done - t_running,
            "artifact": t_end - t_done,
            "coalesced": bool(reply["coalesced"]),
            "key": job["key"],
        }
        with self.lock:
            self.samples.append(sample)
            if not resubmit and not problems:
                self.done.append((body, job["id"]))
        return sample

    def run_for(self, seconds: float, min_jobs: int = 0) -> tuple[list[dict], float]:
        """Both clients loop for ``seconds`` and until ``min_jobs`` are done.

        Returns the operations and the elapsed wall time.
        """
        results: list[dict] = []
        errors: list[BaseException] = []
        start = time.perf_counter()

        def busy() -> bool:
            elapsed = time.perf_counter() - start
            return elapsed < seconds or (len(results) < min_jobs and elapsed < 4 * seconds)

        def client_loop() -> None:
            try:
                while busy():
                    results.append(self.operation())
            except BaseException as exc:  # surfaced to the caller below
                errors.append(exc)

        threads = [
            threading.Thread(target=client_loop, daemon=True)
            for _ in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=4 * seconds + 60)
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        if any(thread.is_alive() for thread in threads):
            raise TimeoutError("service client did not finish")
        return results, elapsed


@dataclass
class ServiceRun:
    """One service-mix drive: operations, speed factors, server start times."""

    results: list[dict]
    elapsed: float
    factor: float
    starts: list[float]
    root: Path
    traced: list[dict] = field(default_factory=list)
    traced_factor: float = 1.0


def drive_service(
    ctx: Context,
    outcome: Outcome,
    seconds: float,
    min_jobs: int = 0,
    tracer: Tracer | None = None,
) -> ServiceRun:
    """Start the service three times, run the mix on the last, check it.

    With a ``tracer`` a second phase of the same length runs with every
    layer wrapped.  After the measured phases a sample of served artifacts
    is compared with a direct ``run_campaign`` of the same grid, and the
    scheduler's execution and coalescing counts with what the clients saw.
    """
    from repro.service.jobs import build_config, build_grid

    starts: list[float] = []
    server = None
    try:
        for number in range(3):
            if server is not None:
                server.stop()
            root = ctx.work / f"service-{number}"
            server, seconds_to_start = start_server(root)
            starts.append(seconds_to_start)
        mix = ServiceMix(server.base_url, ctx.seed)
        probe = SpeedProbe()

        def measure(min_jobs: int) -> tuple[list[dict], float, float]:
            with probe:
                mark = probe.mark()
                results, elapsed = mix.run_for(seconds, min_jobs)
            return results, elapsed, probe.factor(mark)

        run = ServiceRun(*measure(min_jobs), starts=starts, root=root)
        if tracer is not None:
            tracer.install(SERIAL_TARGETS)
            try:
                run.traced, _, run.traced_factor = measure(0)
            finally:
                tracer.restore()
        for result in run.results + run.traced:
            outcome.record(result["problems"])

        picks = random.Random(ctx.seed).sample(mix.done, min(SERVICE_SAMPLES, len(mix.done)))
        for number, (body, job_id) in enumerate(picks):
            direct = ctx.work / f"direct-{number}"
            runner.run_campaign(
                build_grid(body["grid"]), build_config(body.get("config")), store_dir=direct
            )
            outcome.record(
                [
                    f"job {job_id}: served {name} differs from a direct run"
                    for name in ("results.jsonl", "report.txt")
                    if mix.client.artifact(job_id, name) != (direct / name).read_bytes()
                ]
            )
        stats = mix.client.stats()
        distinct = sum(1 for s in mix.samples if not s["coalesced"])
        coalesced = len(mix.samples) - distinct
        outcome.record(
            []
            if (stats.get("executions"), stats.get("coalesced")) == (distinct, coalesced)
            else [f"scheduler counted {stats} for {distinct} jobs + {coalesced} resubmits"]
        )
        return run
    finally:
        if server is not None:
            server.stop()


def service_workload(ctx: Context) -> Outcome:
    from repro.service.jobs import JobStore

    outcome = Outcome()
    setup = import_seconds(ctx)
    rss = PeakRss()
    if not ctx.trace:
        run = drive_service(ctx, outcome, ctx.seconds)
        latency = median(r["latency"] for r in run.results)
        outcome.end_to_end = {
            "wall_s": latency * run.factor,
            "setup_s": setup + median(run.starts),
            "peak_rss_mb": rss.megabytes(),
            "jobs_per_s": len(run.results) / (run.elapsed * run.factor),
        }
        outcome.notes = {"raw_wall_s": latency, "speed_factor": run.factor}
        return outcome

    tracer = Tracer()
    run = drive_service(ctx, outcome, ctx.seconds / 2, P95_JOBS, tracer)
    layers = layer_metrics(tracer, len(run.traced))
    # Store counters describe campaign work: average them over the jobs
    # that executed, not over coalesced resubmits.
    stores = JobStore(run.root)
    counters = [
        read_store_counters(stores.campaign_store_dir(r["key"]))
        for r in run.traced
        if not r["coalesced"]
    ]
    for name in counters[0] if counters else ():
        if name != "job_seconds":
            layers[name] = sum(c[name] for c in counters) / len(counters)
    layers["counters_backend_consistent"] = float(
        all(c["campaign.scenarios"] == len(FIG2_GRID.resolutions) for c in counters)
    )
    layers["obs.trace_overhead_frac"] = (
        median(r["latency"] for r in run.traced) * run.traced_factor
    ) / (median(r["latency"] for r in run.results) * run.factor) - 1.0
    layers.update(service_layers(run.results))
    outcome.per_layer = layers
    tracer.write(ctx.out / f"spans-service-mix-seed{ctx.seed}.jsonl")
    return outcome


def service_layers(results: list[dict]) -> dict[str, float]:
    """Client-side split of the service job: submit, queue, run, fetch."""
    latencies = [r["latency"] * 1e3 for r in results]
    return {
        "service.submit_ms": median(r["submit"] * 1e3 for r in results),
        "service.queue_wait_ms": median(r["queue_wait"] * 1e3 for r in results),
        "service.run_ms": median(r["run"] * 1e3 for r in results),
        "service.artifact_ms": median(r["artifact"] * 1e3 for r in results),
        "service.coalesced_ratio": sum(r["coalesced"] for r in results) / len(results),
        "service.jobs": float(len(results)),
        "service.job_p50_ms": median(latencies),
        "service.job_p95_ms": percentile(latencies, 95),
    }


WORKLOADS = {
    "fig2-cold": lambda ctx: cold_workload(ctx, "serial"),
    "fig2-cold-process": lambda ctx: cold_workload(ctx, "process"),
    "fig2-warm": warm_workload,
    "service-mix": service_workload,
}
