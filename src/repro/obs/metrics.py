"""The process-global metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per process (:data:`REGISTRY`) absorbs every
subsystem's accounting under dotted names (``template.compiled``,
``broker.acked``, ``service.coalesced``, ...), with one storage, reset and
snapshot semantics for all of them.

Three primitives:

* **counter** — monotonically accumulated number (``counter(name, n)``);
* **gauge** — last-set value (``gauge(name, v)``);
* **histogram** — ``count/total/min/max`` summary of observed values
  (``observe(name, v)``).

``snapshot()`` returns a pure-JSON dict; ``merge_snapshot()`` folds one
into the live registry (counters and histogram counts add, gauges keep
the maximum — the only order-independent choice); ``aggregate_snapshots``
folds many into a fresh dict.  That is the cross-worker contract: each
pool or broker worker accumulates locally and ships a snapshot (via
the metrics spool directory or its broker census record), and the
campaign runner folds them all into the store's ``metrics.json``.

**Gating.**  :func:`set_mode` applies ``FlowConfig.telemetry``:
``"off"`` turns the module-level :func:`counter`/:func:`gauge`/
:func:`observe` helpers into no-ops.  Metrics never feed back into
results: the registry is export-only state, excluded from manifests,
fingerprints and task payloads.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
from pathlib import Path

#: Valid ``FlowConfig.telemetry`` values, in increasing verbosity.
TELEMETRY_MODES = ("off", "metrics", "trace")

#: Campaign-store subdirectory where worker processes spool snapshots.
METRICS_DIRNAME = "metrics"

#: Aggregated registry snapshot written into a campaign results store.
METRICS_FILENAME = "metrics.json"

#: Environment variable pointing worker processes at the spool directory.
#: Pool workers inherit it from the campaign runner (like the BLAS pins in
#: :mod:`repro.engine.threads`) and rewrite their cumulative snapshot
#: there after every synthesis job.
SPOOL_ENV = "REPRO_OBS_METRICS_DIR"


def _plain_number(value):
    """Coerce numpy scalars (and bools) to plain JSON-safe numbers."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return float(value)


class MetricsRegistry:
    """Named counters/gauges/histograms with snapshot-merge semantics.

    Thread-safe: every mutation takes one short lock, cheap enough for
    the hot kernel counters (the bench gate in ``benchmarks/bench_obs.py``
    holds metrics-mode overhead under 3% on the DC workload).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict[str, float]] = {}

    # -- mutation --------------------------------------------------------

    def counter(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        amount = _plain_number(amount)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        value = _plain_number(value)
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        value = _plain_number(value)
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = {"count": 0, "total": 0.0, "min": value, "max": value}
                self._histograms[name] = h
            h["count"] += 1
            h["total"] += value
            h["min"] = min(h["min"], value)
            h["max"] = max(h["max"], value)

    def reset(self) -> None:
        """Drop every metric (test/benchmark hook)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- reads -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Pure-JSON copy of the whole registry."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: dict(v) for k, v in self._histograms.items()},
            }

    def merge(self, snapshot: dict) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters and histogram counts/totals add; histogram min/max
        widen; gauges keep the maximum (the only merge that does not
        depend on worker ordering).  Malformed snapshots merge what they
        can and ignore the rest — aggregation must never fail a campaign.
        """
        if not isinstance(snapshot, dict):
            return
        counters = snapshot.get("counters")
        if isinstance(counters, dict):
            for name, value in counters.items():
                if isinstance(value, (int, float)):
                    self.counter(str(name), value)
        gauges = snapshot.get("gauges")
        if isinstance(gauges, dict):
            for name, value in gauges.items():
                if not isinstance(value, (int, float)):
                    continue
                with self._lock:
                    prior = self._gauges.get(str(name))
                    self._gauges[str(name)] = (
                        value if prior is None else max(prior, value)
                    )
        histograms = snapshot.get("histograms")
        if isinstance(histograms, dict):
            for name, h in histograms.items():
                if not isinstance(h, dict):
                    continue
                try:
                    count = int(h["count"])
                    total = float(h["total"])
                    lo, hi = float(h["min"]), float(h["max"])
                except (KeyError, TypeError, ValueError):
                    continue
                with self._lock:
                    mine = self._histograms.get(str(name))
                    if mine is None:
                        self._histograms[str(name)] = {
                            "count": count, "total": total, "min": lo, "max": hi,
                        }
                    else:
                        mine["count"] += count
                        mine["total"] += total
                        mine["min"] = min(mine["min"], lo)
                        mine["max"] = max(mine["max"], hi)

    def lines(self) -> list[str]:
        """The stable, name-sorted ``repro-adc --verbose`` rendering.

        One ``<name> <value>`` line per metric; histograms expand into
        ``<name>.count/.total/.min/.max`` so every line stays a single
        name/value pair (the format documented in docs/engine.md).
        """
        snap = self.snapshot()
        flat: dict[str, float] = dict(snap["counters"])
        flat.update(snap["gauges"])
        for name, h in snap["histograms"].items():
            for stat in ("count", "total", "min", "max"):
                flat[f"{name}.{stat}"] = h[stat]
        return [f"{name} {_format_value(value)}" for name, value in sorted(flat.items())]


def _format_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


#: The process-global registry every subsystem reports into.
REGISTRY = MetricsRegistry()

#: Current telemetry mode; mirrors ``FlowConfig.telemetry``'s default.
_MODE = "metrics"


def set_mode(mode: str) -> None:
    """Apply a ``FlowConfig.telemetry`` value to this process."""
    from repro.errors import SpecificationError

    if mode not in TELEMETRY_MODES:
        raise SpecificationError(
            f"unknown telemetry mode {mode!r} "
            f"(valid: {', '.join(TELEMETRY_MODES)})"
        )
    global _MODE
    _MODE = mode


def telemetry_mode() -> str:
    """The process's current telemetry mode."""
    return _MODE


def metrics_enabled() -> bool:
    """Whether the gated module-level helpers record anything."""
    return _MODE != "off"


def counter(name: str, amount: float = 1) -> None:
    """Gated counter increment (no-op when telemetry is off)."""
    if _MODE != "off":
        REGISTRY.counter(name, amount)


def gauge(name: str, value: float) -> None:
    """Gated gauge set (no-op when telemetry is off)."""
    if _MODE != "off":
        REGISTRY.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Gated histogram observation (no-op when telemetry is off)."""
    if _MODE != "off":
        REGISTRY.observe(name, value)


def snapshot() -> dict:
    """Snapshot of the process-global registry."""
    return REGISTRY.snapshot()


def merge_snapshot(snap: dict) -> None:
    """Fold one snapshot into the process-global registry."""
    REGISTRY.merge(snap)


def reset_all(mode: str = "metrics") -> None:
    """Zero every metric and restore the default mode (test hook)."""
    REGISTRY.reset()
    set_mode(mode)


def aggregate_snapshots(snapshots) -> dict:
    """Fold many snapshots into one (a fresh registry does the math)."""
    folded = MetricsRegistry()
    for snap in snapshots:
        folded.merge(snap)
    return folded.snapshot()


# -- the cross-process spool ------------------------------------------------


def _spool_path(directory: str | Path) -> Path:
    host = socket.gethostname()
    return Path(directory) / f"metrics-{host}-{os.getpid()}.json"


def write_spool_snapshot(directory: str | Path | None = None) -> Path | None:
    """Atomically (re)write this process's cumulative snapshot file.

    ``directory`` defaults to :data:`SPOOL_ENV` from the environment —
    how pool workers find the campaign's spool without any plumbing
    through task payloads.  Returns the written path, or ``None`` when
    there is no spool configured or the write failed (telemetry must
    never fail the work it observes).
    """
    if directory is None:
        directory = os.environ.get(SPOOL_ENV) or None
    if directory is None or _MODE == "off":
        return None
    path = _spool_path(directory)
    payload = json.dumps(snapshot(), indent=2, sort_keys=True) + "\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return None
    return path


def read_spool_snapshots(directory: str | Path, exclude_self: bool = False) -> list[dict]:
    """Every readable snapshot spooled under ``directory``.

    Unreadable or half-written files are skipped — the spool is advisory.
    ``exclude_self`` drops this process's own file: an aggregator that
    already holds its live registry must not count it a second time (the
    serial backend runs jobs in the aggregating process, so its spool file
    duplicates the live counters).
    """
    snapshots: list[dict] = []
    own = _spool_path(directory) if exclude_self else None
    try:
        paths = sorted(Path(directory).glob("metrics-*.json"))
    except OSError:
        return snapshots
    for path in paths:
        if own is not None and path == own:
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict):
            snapshots.append(payload)
    return snapshots


__all__ = [
    "METRICS_DIRNAME",
    "METRICS_FILENAME",
    "REGISTRY",
    "SPOOL_ENV",
    "TELEMETRY_MODES",
    "MetricsRegistry",
    "aggregate_snapshots",
    "counter",
    "gauge",
    "merge_snapshot",
    "metrics_enabled",
    "observe",
    "read_spool_snapshots",
    "reset_all",
    "set_mode",
    "snapshot",
    "telemetry_mode",
    "write_spool_snapshot",
]
