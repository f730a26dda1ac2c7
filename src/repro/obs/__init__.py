"""Unified observability: metrics registry, trace spans, fleet liveness.

``repro.obs`` is the one telemetry substrate every layer reports into —
stamp-template compiles, block-cache accounting, scheduler waves,
campaign scenarios, broker lease lifecycle and service job coalescing.
Three pillars, all stdlib-only:

* **metrics** (:mod:`repro.obs.metrics`) — a process-global
  :class:`MetricsRegistry` of named counters/gauges/histograms with
  ``snapshot()`` / ``merge()`` / ``reset()`` semantics, so pool, queue and
  broker workers can each accumulate locally and a campaign can fold every
  snapshot into one aggregated ``metrics.json`` in its results store;
* **traces** (:mod:`repro.obs.trace`) — a ``span("synth.wave", **attrs)``
  context-manager/decorator with monotonic timings and parent/child
  nesting, exported as JSONL files under ``<store>/traces/`` and rendered
  into a flame-style text report by ``repro-adc trace <store>``
  (:mod:`repro.obs.report`);
* **fleet liveness** — worker census records (registration on first
  lease, heartbeat metadata) kept by the broker layer
  (:mod:`repro.engine.broker`) and surfaced through ``/v1/broker/stats``,
  ``/v1/metrics`` and ``repro-adc status``.

Telemetry is an *execution* knob (``FlowConfig.telemetry``: ``"off"`` /
``"metrics"`` / ``"trace"``): it never enters manifests, fingerprints or
task payloads, and campaign records are byte-identical whichever mode ran
them — only the side artifacts (``metrics.json``, ``traces/``) appear or
disappear.
"""

from repro.obs.metrics import (
    METRICS_DIRNAME,
    REGISTRY,
    SPOOL_ENV,
    TELEMETRY_MODES,
    MetricsRegistry,
    aggregate_snapshots,
    counter,
    gauge,
    merge_snapshot,
    metrics_enabled,
    observe,
    read_spool_snapshots,
    reset_all,
    set_mode,
    snapshot,
    telemetry_mode,
    write_spool_snapshot,
)
from repro.obs.report import read_spans, render_trace
from repro.obs.trace import (
    TRACE_DIRNAME,
    TRACE_ENV,
    TRACER,
    configure_tracing,
    current_context,
    span,
    trace_enabled,
)

__all__ = [
    "METRICS_DIRNAME",
    "REGISTRY",
    "SPOOL_ENV",
    "TELEMETRY_MODES",
    "TRACER",
    "TRACE_DIRNAME",
    "TRACE_ENV",
    "MetricsRegistry",
    "aggregate_snapshots",
    "configure_tracing",
    "counter",
    "current_context",
    "gauge",
    "merge_snapshot",
    "metrics_enabled",
    "observe",
    "read_spans",
    "read_spool_snapshots",
    "render_trace",
    "reset_all",
    "set_mode",
    "snapshot",
    "span",
    "telemetry_mode",
    "trace_enabled",
    "write_spool_snapshot",
]
