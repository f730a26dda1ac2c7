"""Trace spans: nested monotonic timings exported as JSONL files.

``span("synth.wave", wave=1)`` opens a span as a context manager (or
decorates a function); on exit one JSON line is appended to this
process's trace file — ``<trace_dir>/<host>-<pid>.jsonl`` — recording the
span name, ids, wall-clock start, monotonic duration and attributes.
Spans nest per thread: the innermost open span is the parent of the next
one opened on that thread, so a scenario span encloses its wave spans
which enclose their synthesis-job spans.

**Propagation.**  Within a process, nesting is automatic (a per-thread
stack).  Across processes, :func:`current_context` captures the open
span's ``{"trace", "span"}`` ids; the broker backend rides that context
on task envelopes (:func:`repro.service.wire.encode_task`) and a
``repro-adc worker`` adopts it as the parent of its execution span — so
a remote task's span joins the submitting campaign's trace.  The context
is carried *next to* the task payload, never inside it: task keys and
ack digests are computed from the payload alone, so tracing cannot
perturb content addressing or replay.

**Enablement.**  The tracer is off unless a sink directory is configured
— explicitly via :func:`configure_tracing` (the campaign runner points
it at ``<store>/traces/`` when ``FlowConfig.telemetry == "trace"``) or
inherited through the :data:`TRACE_ENV` environment variable (how pool
worker processes join the parent's trace directory).  Disabled spans
cost one attribute check and allocate nothing that outlives the call.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import threading
import time
import uuid
from pathlib import Path

#: Campaign-store subdirectory holding per-process trace files.
TRACE_DIRNAME = "traces"

#: Environment variable carrying the sink directory into worker processes.
TRACE_ENV = "REPRO_OBS_TRACE_DIR"


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Tracer:
    """Per-process span recorder with a per-thread nesting stack."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._dir: str | None = None
        self._handle = None
        self._handle_pid: int | None = None
        self._host = socket.gethostname()

    # -- configuration ---------------------------------------------------

    def configure(self, trace_dir: str | Path | None) -> None:
        """Point the tracer at a sink directory (``None`` disables it)."""
        with self._lock:
            self._dir = None if trace_dir is None else str(trace_dir)
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
            self._handle = None
            self._handle_pid = None

    def sink_dir(self) -> str | None:
        """The effective sink: explicit configuration, else the env var."""
        if self._dir is not None:
            return self._dir
        return os.environ.get(TRACE_ENV) or None

    @property
    def enabled(self) -> bool:
        return self.sink_dir() is not None

    # -- the per-thread span stack and worker label ----------------------

    @property
    def worker(self) -> str | None:
        """The worker identity stamped on this thread's spans, if any.

        Per thread, like the span stack: each ``WorkerLoop`` labels the
        thread it runs on, so loops running side by side in one process
        label only their own spans.
        """
        return getattr(self._tls, "worker", None)

    @worker.setter
    def worker(self, worker: str | None) -> None:
        self._tls.worker = worker

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current_context(self) -> dict | None:
        """``{"trace", "span"}`` of the innermost open span, or ``None``."""
        stack = getattr(self._tls, "stack", None)
        if not stack:
            return None
        trace_id, span_id = stack[-1]
        return {"trace": trace_id, "span": span_id}

    # -- emission --------------------------------------------------------

    def _emit(self, record: dict) -> None:
        sink = self.sink_dir()
        if sink is None:
            return
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            with self._lock:
                # Re-open after configure() or a fork: each process must
                # own its file, or interleaved writes would shear lines.
                if self._handle is None or self._handle_pid != os.getpid():
                    Path(sink).mkdir(parents=True, exist_ok=True)
                    path = Path(sink) / f"{self._host}-{os.getpid()}.jsonl"
                    self._handle = open(path, "a", encoding="utf-8")
                    self._handle_pid = os.getpid()
                self._handle.write(line)
                self._handle.flush()
        except OSError:
            # Tracing must never fail the work it observes.
            pass


class _Span:
    """One ``span(...)`` invocation: context manager *and* decorator."""

    __slots__ = (
        "_tracer", "name", "attrs", "_parent",
        "_ids", "_start_unix", "_t0",
    )

    def __init__(self, tracer: Tracer, name: str, parent: dict | None, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._parent = parent
        self._ids = None

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        if not tracer.enabled:
            return self
        stack = tracer._stack()
        if self._parent is not None:
            trace_id = str(self._parent.get("trace") or _new_id())
            parent_id = self._parent.get("span")
            parent_id = str(parent_id) if parent_id else None
        elif stack:
            trace_id, parent_id = stack[-1][0], stack[-1][1]
        else:
            trace_id, parent_id = _new_id(), None
        span_id = _new_id()
        self._ids = (trace_id, span_id, parent_id)
        stack.append((trace_id, span_id))
        self._start_unix = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._ids is None:
            return False
        duration = time.perf_counter() - self._t0
        tracer = self._tracer
        stack = tracer._stack()
        trace_id, span_id, parent_id = self._ids
        self._ids = None
        if stack and stack[-1] == (trace_id, span_id):
            stack.pop()
        record = {
            "name": self.name,
            "trace": trace_id,
            "span": span_id,
            "parent": parent_id,
            "start_unix": self._start_unix,
            "duration_s": duration,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
            "host": tracer._host,
        }
        if tracer.worker is not None:
            record["worker"] = tracer.worker
        if self.attrs:
            record["attrs"] = self.attrs
        if exc_type is not None:
            record["error"] = exc_type.__name__
        tracer._emit(record)
        return False

    def __call__(self, fn):
        """Decorator form: each call runs inside a fresh span."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with _Span(self._tracer, self.name, self._parent, self.attrs):
                return fn(*args, **kwargs)

        return wrapped


#: The process-global tracer every ``span()`` call records into.
TRACER = Tracer()


def span(name: str, parent: dict | None = None, **attrs) -> _Span:
    """Open a named span on the global tracer.

    Usable as a context manager (``with span("synth.wave", wave=1):``) or
    a decorator (``@span("synth.job")``).  ``parent`` accepts a context
    captured by :func:`current_context` — possibly in another process —
    to stitch distributed spans into one trace.
    """
    return _Span(TRACER, name, parent, attrs)


def current_context() -> dict | None:
    """The open span's propagation context for this thread, or ``None``."""
    return TRACER.current_context()


def configure_tracing(trace_dir: str | Path | None) -> None:
    """Enable (or, with ``None``, disable) span export for this process."""
    TRACER.configure(trace_dir)


def trace_enabled() -> bool:
    """Whether spans are currently being exported."""
    return TRACER.enabled


__all__ = [
    "TRACE_DIRNAME",
    "TRACE_ENV",
    "TRACER",
    "Tracer",
    "configure_tracing",
    "current_context",
    "span",
    "trace_enabled",
]
