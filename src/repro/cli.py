"""Command-line interface: regenerate the paper's figures, explore single
specs, sweep whole design-space grids as campaigns, or run / talk to the
async optimization service.

Examples::

    repro-adc fig1                # analytic stage powers, 13-bit
    repro-adc fig1 --synthesis    # transistor-level synthesis (slower)
    repro-adc fig2
    repro-adc fig3 --backend process
    repro-adc runtime
    repro-adc explore --bits 12
    repro-adc campaign --bits 10-13 --rates 20,40,60 --out campaign-out
    repro-adc campaign --bits 10-13 --corners nom,slow --out corner-out
    repro-adc campaign --bits 10-12 --modes analytic,behavioral \
        --behavioral-draws 1000 --out verified-out
    repro-adc campaign --bits 10-13 --out campaign-out --resume
    repro-adc campaign --bits 10-13 --shard 1/2 --out shard1
    repro-adc merge shard1 shard2 --out merged
    repro-adc serve --store svc-store --port 8765
    repro-adc worker --broker http://127.0.0.1:8765
    repro-adc submit --bits 10-13 --backend broker --watch --fetch results/
    repro-adc jobs

Every flow command accepts the execution-engine flags (``--backend``,
``--workers``, ``--cache-dir``, ``--budget``, ``--retarget-budget``,
``--no-verify``); they assemble the :class:`~repro.engine.config.FlowConfig`
threaded through every entry point.  Specification and service errors exit
with a single-line ``repro-adc: error: ...`` message (status 2), never a
traceback.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

from repro.campaign import (
    CampaignGrid,
    merge_shards,
    parse_int_axis,
    parse_rate_axis,
    parse_shard,
    run_campaign,
)
from repro.campaign.grid import count_shard_units, parse_corner_axis
from repro.engine.backend import BACKENDS
from repro.engine.config import FlowConfig
from repro.errors import ServiceError, SpecificationError
from repro.experiments import (
    fig1_stage_powers,
    fig2_total_power,
    fig3_designer_rules,
    format_fig1,
    format_fig2,
    format_fig3,
    format_runtime,
    retarget_economy,
)
from repro.flow.topology import optimize_topology
from repro.obs.metrics import TELEMETRY_MODES
from repro.specs.adc import AdcSpec

#: Default service URL (``repro-adc submit``/``jobs``), env-overridable.
DEFAULT_SERVICE_URL = os.environ.get("REPRO_ADC_SERVICE", "http://127.0.0.1:8765")

#: --help epilog: the engine knobs in FlowConfig terms, kept in sync with
#: :class:`repro.engine.config.FlowConfig` (see tests/campaign/test_cli.py).
EPILOG = """\
execution engine (every flow command):
  --backend {serial,process,queue,broker} maps the flow's fan-out points
  (candidate evaluation, synthesis waves, resolution sweeps) over the
  chosen executor; --workers bounds the pool.  --cache-dir enables the
  content-fingerprinted persistent block and verdict cache (default: the
  REPRO_ADC_CACHE environment variable), so warm reruns skip synthesis
  and the behavioral Monte-Carlo.
  --budget / --retarget-budget set the cold and warm-start annealer
  evaluation budgets; --no-verify skips the transient verifier.  The
  same knobs form FlowConfig in the Python API.

campaigns:
  repro-adc campaign expands --bits x --rates x --modes into a scenario
  grid and runs it as one batch: one backend, one persistent cache and one
  warm-start donor pool shared across all scenarios.  Results land in
  --out as results.jsonl, report.txt, manifest.json and meta.json.  With
  --out the run is checkpointed per scenario: a killed campaign rerun with
  --resume replays completed scenarios byte-identically and only executes
  the rest (the manifest refuses a store built for a different
  grid/config).  --shard K/N runs the K-th of N deterministic slices of
  the grid on this machine; repro-adc merge SHARD_DIR... --out DIR fuses
  the shard stores into the single-run store, byte-identical to an
  unsharded run.  Synthesis scenarios shard per technology corner (the
  warm-start donor pool is corner-scoped), so a corner sweep splits its
  synthesis grids across machines; N above the grid's unit count is
  refused up front.  --backend queue executes through a crash-tolerant
  file-backed work queue (leases/acks under the store, --queue-dir to
  relocate), so interrupted scenarios also resume at task granularity.
  --corners sweeps registered technology corners (nom, slow).  A
  'behavioral' entry in --modes verifies each grid point's winning
  topology in the time domain: --behavioral-draws Monte-Carlo mismatch
  realizations (seeded by --seed, part of the store's identity) are
  simulated by the vectorized batch kernel and the simulated
  SNDR/ENOB/FoM land in the same store and report as the analytic
  numbers.  See docs/behavioral.md.

service:
  repro-adc serve runs the long-lived optimization service: campaign and
  optimize jobs over a JSON HTTP API, scheduled with priority + per-client
  fairness, coalesced by content (identical requests share one
  computation) and drained gracefully on SIGTERM — a restarted server
  resumes its queue without recomputing completed jobs.  repro-adc submit
  sends a job (--watch streams progress; --fetch downloads the result
  store, byte-identical to a direct campaign run) and repro-adc jobs
  lists the queue.  All routes live under /v1/; unversioned paths still
  answer but carry a Deprecation header.  See docs/service.md.

distributed fabric:
  --backend broker hands the flow's fan-out tasks to a task broker
  instead of a local pool: repro-adc worker processes lease tasks
  (pinned by TTL'd heartbeat leases), execute them, and ack results
  back, so a campaign fans out across processes or machines and a
  SIGKILLed worker's tasks are reclaimed by the survivors.  Point
  workers and flows at a serve instance (worker --broker URL, flows
  --broker-url URL, submit --backend broker) or at a shared directory
  (--queue-dir).  Results stay byte-identical to a serial run.  See
  docs/engine.md.

observability:
  --telemetry {off,metrics,trace} sets the telemetry level for any flow
  command: 'metrics' (the default) accumulates counters — cache hits,
  scheduler waves, broker lease traffic — and campaigns write an
  aggregated metrics.json (runner + pool workers + broker fleet) into
  their store; 'trace' additionally exports nested timing spans to
  <store>/traces/*.jsonl, replayable with repro-adc trace STORE_DIR.
  Records are byte-identical in every mode — telemetry never enters
  manifests or fingerprints.  --verbose dumps the process's metrics
  registry to stderr after any command; repro-adc status --broker URL
  (or --queue-dir DIR) shows a broker's queue depths and live worker
  fleet.  See docs/observability.md.

docs: docs/architecture.md (layer map), docs/engine.md (backends, waves,
fingerprints), docs/service.md (job API), docs/observability.md
(metrics, traces, fleet liveness).
"""


def _engine_parent() -> argparse.ArgumentParser:
    """Shared execution-engine flags, attached to every flow command."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution engine")
    group.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="serial",
        help="execution backend for candidate/sweep/synthesis fan-out",
    )
    group.add_argument(
        "--workers", type=int, default=None, help="pool worker count (default: CPUs)"
    )
    group.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_ADC_CACHE"),
        help="persistent block and verdict cache directory (env REPRO_ADC_CACHE)",
    )
    group.add_argument(
        "--budget", type=int, default=400, help="cold-synthesis annealer budget"
    )
    group.add_argument(
        "--retarget-budget", type=int, default=80, help="warm-start budget"
    )
    group.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the transient verification of synthesized blocks",
    )
    group.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help="lease/ack directory for --backend queue or broker (default: "
        "inside the campaign --out store, or a temporary directory)",
    )
    group.add_argument(
        "--broker-url",
        default=None,
        metavar="URL",
        help="task-broker endpoint for --backend broker (a repro-adc serve "
        "instance; tasks execute on attached repro-adc worker processes)",
    )
    group.add_argument(
        "--broker-wait-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort --backend broker dispatch after SECONDS without any "
        "ack, failure, or live worker lease (default 300; 0 waits forever)",
    )
    group.add_argument(
        "--telemetry",
        choices=TELEMETRY_MODES,
        default=FlowConfig.telemetry,
        help="telemetry level (default metrics): 'off' records nothing, "
        "'metrics' accumulates counters and writes an aggregated "
        "metrics.json into campaign stores, 'trace' additionally exports "
        "timing spans to <store>/traces/ (results are byte-identical in "
        "every mode; see docs/observability.md)",
    )
    group.add_argument(
        "--verbose",
        action="store_true",
        help="print this process's metrics registry (one name-sorted "
        "'name value' line per metric) to stderr after the command; "
        "pool/fleet workers keep their own registries — campaign stores "
        "aggregate them into metrics.json",
    )
    return parent


def _require_store_dir(path: str | None, flag: str) -> str | None:
    """A friendly guard for directory-valued flags.

    Rejects a path that exists but is not a directory (``run_campaign``
    would otherwise die deep inside with a bare ``NotADirectoryError``).
    """
    if path is not None and Path(path).exists() and not Path(path).is_dir():
        raise SpecificationError(
            f"{flag} {path!r} exists and is not a directory "
            "(pass a directory path, or remove the file)"
        )
    return path


def _grid_from_args(args: argparse.Namespace) -> CampaignGrid:
    """The one place CLI axis flags become a CampaignGrid.

    Shared by ``campaign`` and ``submit`` so the two commands can never
    interpret the same flags differently (the service-vs-direct
    byte-identity contract depends on that).
    """
    return CampaignGrid(
        resolutions=parse_int_axis(args.bits),
        sample_rates_hz=parse_rate_axis(args.rates),
        modes=tuple(m.strip() for m in args.modes.split(",") if m.strip()),
        corners=parse_corner_axis(args.corners),
    )


def _flow_config(args: argparse.Namespace) -> FlowConfig:
    """Assemble the FlowConfig from parsed engine flags."""
    if args.queue_dir is not None and args.backend not in ("queue", "broker"):
        raise SpecificationError(
            f"--queue-dir only applies to --backend queue or broker "
            f"(got --backend {args.backend}; valid backends: "
            f"{', '.join(sorted(BACKENDS))})"
        )
    broker_url = getattr(args, "broker_url", None)
    if broker_url is not None and args.backend != "broker":
        raise SpecificationError(
            f"--broker-url only applies to --backend broker "
            f"(got --backend {args.backend}; valid backends: "
            f"{', '.join(sorted(BACKENDS))})"
        )
    broker_wait_timeout = getattr(args, "broker_wait_timeout", None)
    if broker_wait_timeout is not None and args.backend != "broker":
        raise SpecificationError(
            f"--broker-wait-timeout only applies to --backend broker "
            f"(got --backend {args.backend}; valid backends: "
            f"{', '.join(sorted(BACKENDS))})"
        )
    _require_store_dir(args.queue_dir, "--queue-dir")
    _require_store_dir(args.cache_dir, "--cache-dir")
    return FlowConfig(
        backend=args.backend,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
        queue_dir=args.queue_dir,
        broker_url=broker_url,
        broker_wait_timeout=(
            FlowConfig.broker_wait_timeout
            if broker_wait_timeout is None
            else broker_wait_timeout
        ),
        budget=args.budget,
        retarget_budget=args.retarget_budget,
        verify_transient=not args.no_verify,
        # Behavioral flags only exist on the campaign/submit parsers; the
        # figure commands fall back to the library defaults.
        behavioral_draws=getattr(
            args, "behavioral_draws", FlowConfig.behavioral_draws
        ),
        behavioral_seed=getattr(args, "seed", FlowConfig.behavioral_seed),
        telemetry=getattr(args, "telemetry", FlowConfig.telemetry),
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-adc`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-adc",
        description="Designer-driven pipelined-ADC topology optimization (DATE 2005 reproduction)",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine = _engine_parent()

    p_fig1 = sub.add_parser(
        "fig1", parents=[engine], help="stage power per 13-bit candidate"
    )
    p_fig1.add_argument("--synthesis", action="store_true", help="use transistor-level synthesis")

    sub.add_parser("fig2", parents=[engine], help="total front-end power, K=10..13")
    sub.add_parser("fig3", parents=[engine], help="designer decision rules")

    p_rt = sub.add_parser("runtime", help="cold vs retargeted synthesis effort")
    p_rt.add_argument("--budget", type=int, default=400)

    p_explore = sub.add_parser(
        "explore", parents=[engine], help="rank candidates for one resolution"
    )
    p_explore.add_argument("--bits", type=int, default=13)
    p_explore.add_argument("--rate", type=float, default=40e6, help="sample rate [Hz]")
    p_explore.add_argument(
        "--synthesis", action="store_true", help="use transistor-level synthesis"
    )

    p_camp = sub.add_parser(
        "campaign",
        parents=[engine],
        help="run a resolution x rate x mode grid as one batch",
        description=(
            "Expand a design-space grid into scenarios and run them as one "
            "batch sharing a backend, a persistent block and verdict cache and a "
            "cross-scenario warm-start donor pool; writes results.jsonl and "
            "a figure-of-merit comparison report."
        ),
    )
    p_camp.add_argument(
        "--bits",
        default="10-13",
        help="resolution axis: N, N-M or comma list (default 10-13)",
    )
    p_camp.add_argument(
        "--rates",
        default="40",
        help="sample-rate axis in MSPS, comma list (default 40)",
    )
    p_camp.add_argument(
        "--modes",
        default="analytic",
        help="flow-mode axis: comma list of analytic/synthesis/behavioral "
        "(default analytic)",
    )
    p_camp.add_argument(
        "--behavioral-draws",
        type=int,
        default=FlowConfig.behavioral_draws,
        metavar="N",
        help="Monte-Carlo mismatch draws per behavioral scenario "
        f"(default {FlowConfig.behavioral_draws})",
    )
    p_camp.add_argument(
        "--seed",
        type=int,
        default=FlowConfig.behavioral_seed,
        help="behavioral Monte-Carlo seed: every mismatch draw and noise "
        "stream derives from it, and it is part of the store's identity "
        f"(default {FlowConfig.behavioral_seed})",
    )
    p_camp.add_argument(
        "--corners",
        default="nom",
        help="technology-corner axis: comma list of registered corner tags "
        "(default nom; see repro.tech.CORNERS)",
    )
    p_camp.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="results-store directory (default: report to stdout only)",
    )
    p_camp.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-scenario progress lines",
    )
    p_camp.add_argument(
        "--resume",
        action="store_true",
        help="replay the store's completed-scenario checkpoints and run "
        "only the rest (requires --out; refuses a mismatched manifest)",
    )
    p_camp.add_argument(
        "--shard",
        default="1/1",
        metavar="K/N",
        help="run only the K-th of N deterministic grid slices "
        "(default 1/1 = the whole grid); fuse stores with repro-adc merge",
    )

    p_merge = sub.add_parser(
        "merge",
        help="fuse shard stores into one campaign store",
        description=(
            "Validate that the given shard stores belong to the same "
            "campaign (matching grid/config manifests, every shard present "
            "exactly once) and write the merged results store — "
            "byte-identical to a single unsharded run."
        ),
    )
    p_merge.add_argument(
        "stores", nargs="+", metavar="SHARD_DIR", help="shard store directories"
    )
    p_merge.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="merged-store directory (default: print the report only)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the async optimization service",
        description=(
            "Run the long-lived optimization service: accept campaign and "
            "optimize jobs over a JSON HTTP API, coalesce identical "
            "requests onto one computation, stream progress events, and "
            "drain gracefully on SIGTERM (a restart resumes the queue)."
        ),
    )
    p_serve.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="service store directory (job records, queue, result artifacts)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--job-workers",
        type=int,
        default=1,
        help="jobs executed concurrently (default 1)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_ADC_CACHE"),
        help="persistent block and verdict cache directory shared by all "
        "jobs (env REPRO_ADC_CACHE)",
    )
    p_serve.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="broker task-lease time-to-live: a leased task whose worker "
        "stops heartbeating is reclaimed after SECONDS (default 60)",
    )

    p_worker = sub.add_parser(
        "worker",
        help="run a task-executing worker attached to a broker",
        description=(
            "Pull tasks from a broker (a repro-adc serve instance via "
            "--broker, or a shared --queue-dir directly), execute them in "
            "this process, and acknowledge results back.  Start N workers "
            "against one broker to fan a campaign out across processes or "
            "machines; leases + heartbeats make a killed worker's tasks "
            "reclaimable by the survivors."
        ),
    )
    p_worker.add_argument(
        "--broker",
        default=None,
        metavar="URL",
        help="broker endpoint (a repro-adc serve instance, e.g. "
        f"{DEFAULT_SERVICE_URL})",
    )
    p_worker.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help="serve a directory broker in-place instead of an HTTP one "
        "(shared filesystem deployments)",
    )
    p_worker.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="stable identity recorded on leases (default: hostname-pid)",
    )
    p_worker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="idle polling interval between lease attempts (default 0.2)",
    )
    p_worker.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="lease time-to-live assumed for heartbeat pacing, and stamped "
        "on leases when serving a --queue-dir directly (default 60)",
    )
    p_worker.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        metavar="N",
        help="exit after executing N tasks (default: run until signalled)",
    )
    p_worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after SECONDS without finding any task "
        "(default: keep polling)",
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit a job to the optimization service",
        description=(
            "Submit a campaign (default) or single-spec optimize job to a "
            "running repro-adc serve instance; --watch streams progress "
            "events and --fetch downloads the result artifacts."
        ),
    )
    p_submit.add_argument("--url", default=DEFAULT_SERVICE_URL)
    p_submit.add_argument(
        "--kind", choices=("campaign", "optimize"), default="campaign"
    )
    p_submit.add_argument(
        "--bits",
        default=None,
        help="resolution axis (campaign, default 10-13) or single "
        "resolution (optimize, default 12)",
    )
    p_submit.add_argument(
        "--rates", default="40", help="sample-rate axis in MSPS (campaign)"
    )
    p_submit.add_argument(
        "--modes",
        default="analytic",
        help="flow-mode axis, incl. behavioral (campaign)",
    )
    p_submit.add_argument(
        "--behavioral-draws",
        type=int,
        default=FlowConfig.behavioral_draws,
        metavar="N",
        help="Monte-Carlo draws per behavioral scenario (campaign)",
    )
    p_submit.add_argument(
        "--seed",
        type=int,
        default=FlowConfig.behavioral_seed,
        help="behavioral Monte-Carlo seed (campaign; part of the job's "
        "coalescing digest)",
    )
    p_submit.add_argument(
        "--corners", default="nom", help="technology-corner axis (campaign)"
    )
    p_submit.add_argument(
        "--mode",
        choices=("analytic", "synthesis"),
        default="analytic",
        help="flow mode (optimize)",
    )
    p_submit.add_argument(
        "--backend", choices=sorted(BACKENDS), default="serial",
        help="execution backend the server runs this job on",
    )
    p_submit.add_argument("--workers", type=int, default=None)
    p_submit.add_argument("--budget", type=int, default=400)
    p_submit.add_argument("--retarget-budget", type=int, default=80)
    p_submit.add_argument("--no-verify", action="store_true")
    p_submit.add_argument(
        "--telemetry",
        choices=TELEMETRY_MODES,
        default=FlowConfig.telemetry,
        help="telemetry level the server runs this job with (excluded from "
        "the coalescing digest — it never changes results)",
    )
    p_submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="queue priority (lower runs first; default 0)",
    )
    p_submit.add_argument(
        "--client",
        default="cli",
        help="client tag for fair scheduling (default cli)",
    )
    p_submit.add_argument(
        "--watch",
        action="store_true",
        help="stream job events until the job finishes",
    )
    p_submit.add_argument(
        "--fetch",
        default=None,
        metavar="DIR",
        help="download the result artifacts into DIR when done "
        "(implies --watch)",
    )

    p_jobs = sub.add_parser(
        "jobs",
        help="list the optimization service's jobs",
        description="List every job the service knows, in submission order.",
    )
    p_jobs.add_argument("--url", default=DEFAULT_SERVICE_URL)
    p_jobs.add_argument(
        "--stats", action="store_true", help="also print scheduler counters"
    )

    p_trace = sub.add_parser(
        "trace",
        help="render a campaign store's recorded trace spans",
        description=(
            "Read the span files a --telemetry trace run exported under "
            "<store>/traces/ and render them as per-trace timing trees "
            "(nested spans indented under their parents, durations and "
            "attributes inline)."
        ),
    )
    p_trace.add_argument(
        "store",
        metavar="STORE_DIR",
        help="campaign store directory (or a traces/ directory directly)",
    )

    p_status = sub.add_parser(
        "status",
        help="show a broker's queue depths and worker fleet",
        description=(
            "Query a task broker (a repro-adc serve instance via --broker, "
            "or a shared --queue-dir directly) and print its lifecycle "
            "counters, queue depths, and the live worker census: every "
            "attached worker's identity, current task, completion counts "
            "and last-seen age."
        ),
    )
    p_status.add_argument(
        "--broker",
        default=None,
        metavar="URL",
        help="broker endpoint (a repro-adc serve instance, e.g. "
        f"{DEFAULT_SERVICE_URL})",
    )
    p_status.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help="inspect a directory broker in-place instead of an HTTP one",
    )
    p_status.add_argument(
        "--json",
        action="store_true",
        help="print the raw stats payload as JSON instead of the summary",
    )

    args = parser.parse_args(argv)

    try:
        code = _dispatch(args, parser)
    except (SpecificationError, ServiceError) as exc:
        print(f"repro-adc: error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "verbose", False):
        _print_telemetry()
    return code


def _print_telemetry() -> None:
    """Dump the in-process metrics registry to stderr (``--verbose``).

    One stable format — name-sorted ``<name> <value>`` lines straight from
    :meth:`repro.obs.metrics.MetricsRegistry.lines` (histograms expand to
    ``.count/.total/.min/.max``), so scripts can grep a metric without
    caring which subsystem emitted it.  The registry is per process: under
    the pool/queue/broker backends the workers keep their own registries,
    which campaign stores aggregate into ``metrics.json``.
    """
    from repro.obs import metrics

    lines = metrics.REGISTRY.lines()
    print("telemetry (this process):", file=sys.stderr)
    if not lines:
        print("  (no metrics recorded)", file=sys.stderr)
    for line in lines:
        print(f"  {line}", file=sys.stderr)


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Execute one parsed command; library errors bubble to ``main``."""
    if args.command == "fig1":
        mode = "synthesis" if args.synthesis else "analytic"
        print(format_fig1(fig1_stage_powers(mode=mode, config=_flow_config(args))))
    elif args.command == "fig2":
        print(format_fig2(fig2_total_power(config=_flow_config(args))))
    elif args.command == "fig3":
        print(format_fig3(fig3_designer_rules(config=_flow_config(args))))
    elif args.command == "runtime":
        print(format_runtime(retarget_economy(cold_budget=args.budget)))
    elif args.command == "explore":
        spec = AdcSpec(resolution_bits=args.bits, sample_rate_hz=args.rate)
        mode = "synthesis" if args.synthesis else "analytic"
        result = optimize_topology(spec, mode=mode, config=_flow_config(args))
        print(f"{args.bits}-bit, {args.rate/1e6:.0f} MSPS front-end candidates:")
        for label, mw in result.power_table():
            print(f"  {label:14s} {mw:7.2f} mW")
        print(f"optimum: {result.best.label}")
        if mode == "synthesis":
            print(f"unique blocks synthesized: {result.unique_blocks}")
    elif args.command == "campaign":
        grid = _grid_from_args(args)
        shard = parse_shard(args.shard)
        units = count_shard_units(grid.expand())
        if shard[1] > units:
            raise SpecificationError(
                f"--shard {args.shard} asks for {shard[1]} shards but this "
                f"grid has only {units} ledger-independent unit(s) — "
                "synthesis scenarios shard per technology corner (add "
                "--corners values or lower N)"
            )
        _require_store_dir(args.out, "--out")
        if args.resume and args.out is None:
            parser.error("--resume requires --out (the store to resume)")

        def _progress(scenario_result) -> None:
            record = scenario_result.record
            note = " [replayed]" if scenario_result.replayed else ""
            print(
                f"[{record.index + 1}/{grid.size}] {record.label}: "
                f"winner {record.winner}, "
                f"{record.winner_power_w * 1e3:.2f} mW "
                f"({scenario_result.wall_seconds:.2f} s){note}",
                file=sys.stderr,
            )

        campaign = run_campaign(
            grid,
            config=_flow_config(args),
            progress=None if args.quiet else _progress,
            store_dir=args.out,
            resume=args.resume,
            shard=shard,
        )
        print(campaign.report())
        if args.out is not None:
            if campaign.replayed_scenarios:
                print(
                    f"resumed: {campaign.replayed_scenarios} scenario(s) "
                    "replayed from checkpoints",
                    file=sys.stderr,
                )
            print(f"\nresults store: {args.out}/results.jsonl", file=sys.stderr)
    elif args.command == "merge":
        _require_store_dir(args.out, "--out")
        _, report_text, _ = merge_shards(args.stores, out_dir=args.out)
        print(report_text)
        if args.out is not None:
            print(f"\nmerged store: {args.out}/results.jsonl", file=sys.stderr)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "worker":
        return _cmd_worker(args)
    elif args.command == "submit":
        return _cmd_submit(args)
    elif args.command == "jobs":
        return _cmd_jobs(args)
    elif args.command == "trace":
        return _cmd_trace(args)
    elif args.command == "status":
        return _cmd_status(args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the optimization service until SIGTERM/SIGINT."""
    from repro.service.server import OptimizationService

    _require_store_dir(args.store, "--store")
    _require_store_dir(args.cache_dir, "--cache-dir")
    extra = {} if args.lease_ttl is None else {"lease_ttl": args.lease_ttl}
    service = OptimizationService(
        args.store,
        host=args.host,
        port=args.port,
        job_workers=args.job_workers,
        cache_dir=args.cache_dir,
        **extra,
    )

    def _ready() -> None:
        print(
            f"repro-adc service on {service.base_url} "
            f"(store: {args.store}, workers: {args.job_workers})",
            flush=True,
        )

    def _draining() -> None:
        print("draining...", flush=True)

    try:
        asyncio.run(service.run(on_ready=_ready, on_drain=_draining))
    except KeyboardInterrupt:
        pass
    print("stopped", flush=True)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run a broker worker until signalled (or --max-tasks/--idle-exit)."""
    import signal
    import threading

    from repro.engine.broker import (
        DEFAULT_LEASE_TTL,
        DirectoryBroker,
        HttpBroker,
    )
    from repro.engine.worker import WorkerLoop, default_worker_id

    if (args.broker is None) == (args.queue_dir is None):
        raise SpecificationError(
            "pick exactly one task source: --broker URL (a repro-adc serve "
            "instance) or --queue-dir DIR (a shared queue directory)"
        )
    ttl = DEFAULT_LEASE_TTL if args.ttl is None else args.ttl
    if args.broker is not None:
        broker = HttpBroker(args.broker)
        source = args.broker
    else:
        _require_store_dir(args.queue_dir, "--queue-dir")
        broker = DirectoryBroker(args.queue_dir, lease_ttl=ttl)
        source = args.queue_dir
    worker_id = args.worker_id or default_worker_id()
    loop = WorkerLoop(
        broker,
        worker_id=worker_id,
        poll_interval=args.poll,
        lease_ttl=ttl,
        max_tasks=args.max_tasks,
        idle_exit=args.idle_exit,
    )
    print(f"repro-adc worker {worker_id} on {source}", flush=True)

    stop = threading.Event()

    def _signalled(signum: int, frame: object) -> None:
        stop.set()

    # Graceful stop: finish (and ack) the in-flight task, then exit.  A
    # SIGKILLed worker instead leaves a lease that the broker reclaims
    # after the TTL, so either way no task is lost.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _signalled)
    counters = loop.run(stop=stop)
    print(
        "worker {}: {}".format(
            worker_id,
            ", ".join(f"{k}={v}" for k, v in sorted(counters.items())),
        ),
        flush=True,
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a store's recorded spans (``repro-adc trace STORE_DIR``)."""
    from repro.obs.report import read_spans, render_trace

    if not Path(args.store).exists():
        raise SpecificationError(
            f"no such store {args.store!r} (pass a campaign --out directory "
            "written with --telemetry trace, or its traces/ subdirectory)"
        )
    print(render_trace(read_spans(args.store)), end="")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Show a broker's counters, queue depths and worker fleet."""
    from repro.engine.broker import DirectoryBroker, HttpBroker

    if (args.broker is None) == (args.queue_dir is None):
        raise SpecificationError(
            "pick exactly one broker: --broker URL (a repro-adc serve "
            "instance) or --queue-dir DIR (a shared queue directory)"
        )
    if args.broker is not None:
        broker = HttpBroker(args.broker)
        source = broker.base_url
    else:
        _require_store_dir(args.queue_dir, "--queue-dir")
        broker = DirectoryBroker(args.queue_dir)
        source = args.queue_dir
    stats = broker.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    workers = stats.get("workers")
    if not isinstance(workers, list):
        workers = []
    print(f"broker {source}:")
    print(
        "  queue:   "
        + ", ".join(
            f"{name}={stats.get(name, 0)}" for name in ("pending", "leases", "acks")
        )
    )
    print(
        "  lifetime: "
        + ", ".join(
            f"{name}={stats.get(name, 0)}"
            for name in ("submitted", "leased", "acked", "nacked", "reclaimed")
        )
    )
    print(f"workers: {len(workers)} live")
    now = time.time()
    for record in workers:
        ident = record.get("worker", "?")
        current = record.get("current")
        state = f"running {str(current)[:12]}" if current else "idle"
        try:
            seen = max(0.0, now - float(record.get("last_seen", now)))
        except (TypeError, ValueError):
            seen = 0.0
        print(
            f"  {ident}: {state}, "
            f"executed={record.get('executed', 0)}, "
            f"failed={record.get('failed', 0)}, "
            f"busy={record.get('busy_seconds', 0.0)}s, "
            f"seen {seen:.0f}s ago"
        )
    return 0


def _submit_request(args: argparse.Namespace) -> dict:
    """Build the submission body from CLI flags (validates axes locally)."""
    if args.bits is None:
        args.bits = "10-13" if args.kind == "campaign" else "12"
    config = {
        "backend": args.backend,
        "max_workers": args.workers,
        "budget": args.budget,
        "retarget_budget": args.retarget_budget,
        "verify_transient": not args.no_verify,
        "behavioral_draws": args.behavioral_draws,
        "behavioral_seed": args.seed,
        "telemetry": args.telemetry,
    }
    if args.kind == "campaign":
        grid = _grid_from_args(args)
        return {
            "kind": "campaign",
            "grid": {
                "resolutions": list(grid.resolutions),
                "sample_rates_hz": list(grid.sample_rates_hz),
                "modes": list(grid.modes),
                "corners": [tag for tag, _ in grid.corners],
            },
            "config": config,
            "priority": args.priority,
            "client": args.client,
        }
    bits = parse_int_axis(args.bits)
    if len(bits) != 1:
        raise SpecificationError(
            f"optimize jobs take a single resolution (--bits {args.bits!r} "
            f"expands to {len(bits)} values; use --kind campaign for sweeps)"
        )
    corners = parse_corner_axis(args.corners)
    if len(corners) != 1:
        raise SpecificationError(
            "optimize jobs take a single corner "
            f"(--corners {args.corners!r}; use --kind campaign for sweeps)"
        )
    rates = parse_rate_axis(args.rates)
    if len(rates) != 1:
        raise SpecificationError(
            f"optimize jobs take a single rate (--rates {args.rates!r}; "
            "use --kind campaign for sweeps)"
        )
    return {
        "kind": "optimize",
        "spec": {
            "resolution_bits": bits[0],
            "sample_rate_hz": rates[0],
            "corner": corners[0][0],
        },
        "mode": args.mode,
        "config": config,
        "priority": args.priority,
        "client": args.client,
    }


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job; optionally stream events and fetch artifacts."""
    from repro.service.client import ServiceClient
    from repro.service.jobs import TERMINAL_STATES

    if args.fetch is not None:
        _require_store_dir(args.fetch, "--fetch")
    client = ServiceClient(args.url)
    response = client.submit(_submit_request(args))
    job = response["job"]
    note = " (coalesced with an identical job)" if response["coalesced"] else ""
    print(f"job {job['id']}: {job['kind']} {job['state']}{note}")
    if not (args.watch or args.fetch):
        return 0

    final_state = job["state"]
    while final_state not in TERMINAL_STATES:
        for event in client.watch(job["id"]):
            final_state = event.get("state", final_state)
            if event["event"] == "scenario":
                print(
                    f"  [{event['completed']}/{event['total_scenarios']}] "
                    f"{event['label']}: winner {event['winner']}"
                    + (" [replayed]" if event.get("replayed") else ""),
                    file=sys.stderr,
                )
            elif event["event"] in ("started", "requeued", "failed", "done"):
                print(f"  {event['event']}", file=sys.stderr)
            if final_state in TERMINAL_STATES:
                break
        else:
            # Stream severed (server drained): wait() rides out the
            # restart window instead of failing on the first refused poll.
            final_state = client.wait(job["id"])["state"]

    if final_state == "failed":
        detail = client.job(job["id"]).get("error")
        raise ServiceError(f"job {job['id']} failed: {detail}")
    if final_state == "cancelled":
        print(f"job {job['id']} was cancelled")
        return 1
    report = None
    if args.fetch is not None:
        paths = client.download(job["id"], args.fetch)
        for name in sorted(paths):
            print(f"fetched {paths[name]}", file=sys.stderr)
        if "report.txt" in paths:  # already on disk: no extra round-trips
            report = paths["report.txt"].read_text(encoding="utf-8")
    elif "report.txt" in client.artifacts(job["id"]):
        report = client.artifact(job["id"], "report.txt").decode("utf-8")
    if report:
        print(report, end="")
    else:
        print(json.dumps(client.result(job["id"]), indent=2, sort_keys=True))
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """List the service's jobs (and optionally its counters)."""
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
    for job in jobs:
        progress = f"{job['completed_scenarios']}/{job['total_scenarios']}"
        error = f"  error: {job['error']}" if job["error"] else ""
        print(
            f"{job['id']}  {job['kind']:8s} {job['state']:9s} "
            f"{progress:>7s}  x{job['submissions']} "
            f"(client {job['client']}, priority {job['priority']}){error}"
        )
    if args.stats:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
