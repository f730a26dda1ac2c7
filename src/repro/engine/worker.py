"""The ``repro-adc worker`` execution loop: pull, execute, heartbeat, ack.

A worker is the other half of the :class:`~repro.engine.broker.Broker`
fabric: :class:`~repro.engine.broker.BrokerBackend` publishes task
envelopes; any number of ``WorkerLoop`` processes — on any host that can
reach the broker — lease them, run them through the same importable task
functions the local backends use, and ack pickled results back.  Fleet
size is pure deployment: determinism lives in the tasks and the
order-preserving assembly, so 1 worker and N workers produce
byte-identical stores.

Safety properties:

* **Function allow-list** — envelopes name their function; the loop only
  resolves names inside the ``repro`` package.  Task *bodies* are decoded
  through :func:`repro.service.wire.restricted_loads`, which admits
  ``repro`` classes and plain data but no callable globals, so a broker
  fed by an untrusted submitter cannot make a worker import and run
  arbitrary code — neither via the function name nor via a pickle gadget
  in the payload.  (An untrusted submitter can still make workers *do
  work*: run allow-listed ``repro`` functions over attacker-chosen data.
  Keep broker ports on trusted networks.)
* **Liveness** — a background heartbeat extends the lease at TTL/3 cadence
  while a task runs, so long syntheses survive; if the worker is SIGKILLed
  the heartbeat stops and the lease expires, and the broker re-leases the
  task to a surviving worker.
* **Failure containment** — a task that raises is nacked with the error
  string; after :data:`~repro.engine.broker.MAX_RETRIES` failed executions
  the broker stops re-leasing it and the submitter surfaces the error.
"""

from __future__ import annotations

import importlib
import os
import socket
import threading
import time
from typing import Callable

from repro.engine.broker import DEFAULT_LEASE_TTL, Broker, lease_heartbeat
from repro.obs import metrics
from repro.obs.trace import TRACER, span


def default_worker_id() -> str:
    """Stable-enough identity for one worker process: ``host-pid``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def resolve_task_fn(fn_name: str) -> Callable:
    """Import the task function named by an envelope, allow-listed.

    Only ``repro``-package functions resolve — the fabric ships *names*,
    and a worker must never let a task envelope pick arbitrary importables
    (``os.system`` would be one dotted name away).  Raises ``ValueError``
    for anything outside the allow-list or that fails to resolve.
    """
    module_name, _, qualname = fn_name.rpartition(".")
    if not module_name or not (
        module_name == "repro" or module_name.startswith("repro.")
    ):
        raise ValueError(
            f"task function {fn_name!r} is outside the repro package"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ValueError(f"cannot import task module {module_name!r} ({exc})") from exc
    target = module
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            raise ValueError(f"task function {fn_name!r} does not exist")
    if not callable(target):
        raise ValueError(f"task function {fn_name!r} is not callable")
    return target


def fabric_probe(task: dict) -> str:
    """Benchmark task with a fixed off-CPU service time.

    Sleeps ``task["busy_s"]`` seconds, then returns the task's digest.
    Because the service time is a sleep rather than computation, a fleet
    throughput measurement built on this probe isolates the fabric's
    dispatch concurrency from the host's core count — two workers on a
    one-core CI runner still overlap their probes, exactly as two workers
    on two hosts overlap real syntheses.
    """
    from repro.engine.persist import digest

    time.sleep(float(task.get("busy_s", 0.0)))
    return digest(task)


class WorkerLoop:
    """Pull tasks from one broker until stopped, idle, or quota reached.

    The loop is synchronous — one task at a time — because fleet
    parallelism comes from running more workers, and a single-task worker
    makes the SIGKILL/reclaim story trivial (at most one lease is ever at
    stake).  Counters are returned from :meth:`run` and kept on the
    instance for tests.
    """

    def __init__(
        self,
        broker: Broker,
        worker_id: str | None = None,
        poll_interval: float = 0.2,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_tasks: int | None = None,
        idle_exit: float | None = None,
    ):
        self.broker = broker
        self.worker_id = worker_id or default_worker_id()
        self.poll_interval = poll_interval
        #: Heartbeat cadence: three beats per TTL keeps a healthy worker's
        #: lease alive through arbitrary-length tasks with margin for one
        #: missed beat.
        self.heartbeat_interval = max(lease_ttl / 3.0, 0.05)
        self.max_tasks = max_tasks
        self.idle_exit = idle_exit
        self.counters = {"executed": 0, "failed": 0, "rejected": 0, "polls": 0}
        #: Wall seconds spent executing leased tasks (census metadata).
        self.busy_seconds = 0.0
        self.started_unix = time.time()
        self._census_pushed = 0.0

    # -- the fleet census ---------------------------------------------------------

    def census_record(self, current: str | None = None) -> dict:
        """This worker's census record: identity, workload, metrics."""
        return {
            "worker": self.worker_id,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "started_unix": self.started_unix,
            "current": current,
            "executed": self.counters["executed"],
            "failed": self.counters["failed"],
            "rejected": self.counters["rejected"],
            "polls": self.counters["polls"],
            "busy_seconds": round(self.busy_seconds, 3),
            "metrics": metrics.snapshot(),
        }

    def _push_census(self, current: str | None = None) -> None:
        """Best-effort census refresh; brokers without one are fine."""
        register = getattr(self.broker, "register_worker", None)
        if not callable(register):
            return
        try:
            register(self.census_record(current))
            self._census_pushed = time.monotonic()
        except Exception:
            pass  # census is advisory; never let it take a worker down

    # -- execution ----------------------------------------------------------------

    def _execute(self, key: str, envelope: dict) -> None:
        from repro.service import wire

        try:
            fn_name, task = wire.decode_task(envelope)
            fn = resolve_task_fn(fn_name)
        except ValueError as exc:
            self.counters["rejected"] += 1
            metrics.counter("worker.rejected")
            self.broker.nack(key, self.worker_id, f"rejected envelope: {exc}")
            return
        t0 = time.perf_counter()
        try:
            with lease_heartbeat(
                self.broker, key, self.worker_id, self.heartbeat_interval
            ):
                # The submitter's span context rides the envelope; adopting
                # it as the parent stitches this worker's execution into the
                # campaign's trace tree even across hosts.
                with span("worker.task", parent=wire.trace_context(envelope), key=key[:12]):
                    result = fn(task)
        except BaseException as exc:
            self.busy_seconds += time.perf_counter() - t0
            self.counters["failed"] += 1
            metrics.counter("worker.failed")
            self.broker.nack(key, self.worker_id, f"{type(exc).__name__}: {exc}")
            if not isinstance(exc, Exception):
                raise  # KeyboardInterrupt/SystemExit: nack, then propagate
            return
        self.busy_seconds += time.perf_counter() - t0
        self.broker.ack(key, wire.encode_result(result), self.worker_id)
        self.counters["executed"] += 1
        metrics.counter("worker.executed")

    def run(self, stop: threading.Event | None = None) -> dict:
        """Serve tasks until ``stop`` is set, ``max_tasks`` executed, or the
        broker stays empty past ``idle_exit`` seconds.  Returns counters.

        Spans on this thread carry the worker id while the loop runs; the
        thread's previous label comes back when it returns."""
        stop = stop or threading.Event()
        previous = TRACER.worker
        TRACER.worker = self.worker_id
        try:
            return self._serve(stop)
        finally:
            TRACER.worker = previous

    def _serve(self, stop: threading.Event) -> dict:
        idle_since = time.monotonic()
        self._push_census()
        while not stop.is_set():
            if (
                self.max_tasks is not None
                and self.counters["executed"] + self.counters["failed"]
                >= self.max_tasks
            ):
                break
            self.counters["polls"] += 1
            leased = self.broker.lease(self.worker_id)
            if leased is None:
                if (
                    self.idle_exit is not None
                    and time.monotonic() - idle_since > self.idle_exit
                ):
                    break
                # An idle worker still refreshes its census entry at the
                # heartbeat cadence, so the fleet view shows it attached.
                if time.monotonic() - self._census_pushed > self.heartbeat_interval:
                    self._push_census()
                stop.wait(self.poll_interval)
                continue
            key, envelope = leased
            self._push_census(current=key)
            self._execute(key, envelope)
            self._push_census()
            idle_since = time.monotonic()
        self._push_census()
        return dict(self.counters)


__all__ = ["WorkerLoop", "default_worker_id", "fabric_probe", "resolve_task_fn"]
