"""Observability overhead benchmark: telemetry must be near-free.

The contract the unified observability layer ships with: `metrics` mode
(the default) may not tax a synthesis run, and `trace` mode's span export
stays cheap enough for production use.  The workload is one
:func:`~repro.engine.scheduler.execute_plan` over the three MDACs of the
13-bit 4-3-2 plan (one cold search, two retargets, serial backend, a
fresh in-memory block cache per pass, transient verification off) — the
path that emits the registry events: scheduler wave and job counters,
job-seconds histograms, cache effort counters, and a ``synth.wave`` and
``synth.job`` span per wave and job.  The evaluator calls inside the
searches, which take most of each pass, emit none.

The gated number is a cost model, not a wall difference.  One pass runs
with every telemetry helper (``metrics.counter``/``gauge``/``observe`` and
``span``) wrapped, wherever a ``repro`` module binds it, to count its
calls; each helper's per-call wall is micro-benchmarked in each mode; and
calls times cost, over the off-mode wall of a pass, is the overhead.  It
charges a helper's whole cost, not only what the mode adds, so it is an
upper bound.  A pass makes a few dozen calls in about 0.3 s, so the
bound reads hundredths of a percent, and its spread on unchanged code
stays far below the gates; a helper called from a hot loop, or a helper
that got slow, moves it.

The best-of-N walls of the three configurations are still measured,
round-robin, and reported (``overhead_metrics_pct``,
``overhead_trace_pct``), but not gated: the difference is below the
run-to-run spread of a shared host.  Over ten smoke runs of this stage on
a shared 2-CPU container it read from -7.3 % to +6.2 % in metrics mode
and from -17.4 % to +10.4 % in trace mode.

* ``off``     — gated helpers are no-ops, tracer disabled;
* ``metrics`` — the shipping default: registry counters live;
* ``trace``   — metrics plus JSONL span export to a sink directory.

A registry micro-rate (plain ``REGISTRY.counter`` calls per second) is
reported alongside so the per-event cost is visible in absolute terms.

Runs standalone through ``benchmarks/run_all.py`` (the ``obs`` stage):
``--check`` fails the run when the modelled metrics-mode overhead exceeds
3% of the off-mode wall (the acceptance floor), when a metrics-mode pass
recorded no registry events, when trace mode recorded no spans, or when
the modelled trace overhead exceeds a looser 15% sanity bound.
"""

from __future__ import annotations

import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from repro.engine.backend import SerialBackend
from repro.engine.scheduler import execute_plan, plan_synthesis
from repro.enumeration.candidates import PipelineCandidate
from repro.flow.cache import BlockCache
from repro.obs import metrics, trace
from repro.obs.trace import configure_tracing, span
from repro.specs import AdcSpec, plan_stages
from repro.tech.process import CMOS025


#: Search budget per cold block (retargets get half): small enough for a
#: pass of ~0.25 s, while the pattern-search polish keeps its floor of 40.
_BUDGET = 80


def _one_span() -> None:
    with span("bench.micro", n=1):
        pass


#: The telemetry helpers a pass can call, and one typical call of each.
_HELPERS = {
    "counter": (metrics.counter, lambda: metrics.counter("bench.micro")),
    "gauge": (metrics.gauge, lambda: metrics.gauge("bench.micro", 1.0)),
    "observe": (metrics.observe, lambda: metrics.observe("bench.micro", 1.0)),
    "span": (trace.span, _one_span),
}


def _interleaved_walls(fn, modes, configure, repeats: int) -> dict[str, float]:
    """Best wall per mode, measured round-robin.

    Sequential per-mode blocks would fold clock/thermal drift into the
    overhead percentages; interleaving the modes samples each against the
    same drift.
    """
    walls: dict[str, list[float]] = {mode: [] for mode in modes}
    for mode in modes:
        configure(mode)
        fn()  # warm layout/template caches and the trace sink per mode
    for _ in range(repeats):
        for mode in modes:
            configure(mode)
            start = time.perf_counter()
            fn()
            walls[mode].append(time.perf_counter() - start)
    return {mode: min(samples) for mode, samples in walls.items()}


def _counter_rate(events: int = 200_000) -> float:
    registry = metrics.MetricsRegistry()
    start = time.perf_counter()
    for _ in range(events):
        registry.counter("bench.micro")
    return events / (time.perf_counter() - start)


def _count_helper_calls(fn) -> dict[str, int]:
    """Calls ``fn`` makes to each telemetry helper, in one run.

    Every binding of a helper in a ``repro`` module or in this one (a
    ``metrics.counter`` attribute, a ``from repro.obs.trace import span``
    name) is wrapped with a counter for the run.
    """
    counts = dict.fromkeys(_HELPERS, 0)

    def counting(name, helper):
        def counted(*args, **kwargs):
            counts[name] += 1
            return helper(*args, **kwargs)

        return counted

    with ExitStack() as patches:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name.startswith("repro") or module_name == __name__
            ):
                continue
            for attr, value in list(vars(module).items()):
                for name, (helper, _) in _HELPERS.items():
                    if value is helper:
                        patches.enter_context(
                            mock.patch.object(module, attr, counting(name, helper))
                        )
        fn()
    return counts


def _per_call_seconds(calls: int = 2000, blocks: int = 5) -> dict[str, float]:
    """Each helper's per-call wall in the current mode, best of ``blocks``."""
    costs = {}
    for name, (_, call) in _HELPERS.items():
        best = float("inf")
        for _ in range(blocks):
            start = time.perf_counter()
            for _ in range(calls):
                call()
            best = min(best, time.perf_counter() - start)
        costs[name] = best / calls
    return costs


def _event_count(snapshot: dict) -> int:
    """Registry events behind a snapshot: counter increments + observations."""
    counters = sum(snapshot["counters"].values())
    observations = sum(h["count"] for h in snapshot["histograms"].values())
    return int(counters + observations)


def run_obs_benchmark(repeats: int = 9) -> dict:
    mdacs = plan_stages(
        AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
    ).mdacs
    plan = plan_synthesis(mdacs)

    def one_pass():
        cache = BlockCache(
            CMOS025,
            budget=_BUDGET,
            retarget_budget=_BUDGET // 2,
            verify_transient=False,
        )
        with span("bench.plan_pass", blocks=len(mdacs)):
            execute_plan(plan, cache, SerialBackend())

    previous_mode = metrics.telemetry_mode()
    spans_written = 0
    try:
        with tempfile.TemporaryDirectory(prefix="bench-obs-") as tmp:
            trace_dir = Path(tmp) / "traces"

            def configure(mode: str) -> None:
                metrics.reset_all(mode)
                configure_tracing(trace_dir if mode == "trace" else None)

            walls = _interleaved_walls(
                one_pass, metrics.TELEMETRY_MODES, configure, repeats
            )
            configure("metrics")
            calls = _count_helper_calls(one_pass)
            events_per_pass = _event_count(metrics.REGISTRY.snapshot())
            spans_written = sum(
                len(path.read_text().splitlines())
                for path in trace_dir.glob("*.jsonl")
            )
            per_call = {}
            for mode in metrics.TELEMETRY_MODES:
                configure(mode)
                per_call[mode] = _per_call_seconds()
    finally:
        configure_tracing(None)
        metrics.reset_all(previous_mode)

    def overhead_pct(mode: str) -> float:
        return round((walls[mode] - walls["off"]) / walls["off"] * 100.0, 2)

    def modelled_pct(mode: str) -> float:
        seconds = sum(calls[name] * per_call[mode][name] for name in calls)
        return round(seconds / walls["off"] * 100.0, 4)

    return {
        "workload": f"execute_plan over the 13-bit 4-3-2 plan "
                    f"({len(mdacs)} blocks, budget {_BUDGET}), best of {repeats}",
        "wall_off_s": round(walls["off"], 4),
        "wall_metrics_s": round(walls["metrics"], 4),
        "wall_trace_s": round(walls["trace"], 4),
        "overhead_metrics_pct": overhead_pct("metrics"),
        "overhead_trace_pct": overhead_pct("trace"),
        "helper_calls_per_pass": calls,
        "helper_cost_us": {
            mode: {name: round(cost * 1e6, 3) for name, cost in costs.items()}
            for mode, costs in per_call.items()
        },
        "modelled_metrics_pct": modelled_pct("metrics"),
        "modelled_trace_pct": modelled_pct("trace"),
        "registry_events_per_pass": events_per_pass,
        "spans_written": spans_written,
        "counter_rate_per_s": round(_counter_rate(), 0),
    }


def check_obs_report(report: dict) -> list[str]:
    """``--check`` failures for the obs stage (empty list = pass)."""
    failures = []
    if report["modelled_metrics_pct"] > 3.0:
        failures.append(
            "regression: metrics-mode telemetry over its 3% overhead "
            f"floor on the synthesis workload ({report['modelled_metrics_pct']}%)"
        )
    if report["registry_events_per_pass"] == 0:
        failures.append("metrics mode recorded no events on the synthesis workload")
    if report["spans_written"] == 0:
        failures.append("trace mode exported no spans on the synthesis workload")
    if report["modelled_trace_pct"] > 15.0:
        failures.append(
            "regression: trace-mode telemetry over its 15% sanity bound "
            f"({report['modelled_trace_pct']}%)"
        )
    return failures


if __name__ == "__main__":
    import json

    report = run_obs_benchmark()
    print(json.dumps(report, indent=2))
    problems = check_obs_report(report)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    raise SystemExit(1 if problems else 0)
