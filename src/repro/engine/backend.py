"""Pluggable execution backends for the flow's embarrassingly parallel loops.

The flow has three fan-out points — per-candidate analytic evaluation,
per-wave block synthesis, and the per-resolution designer-rule sweep — and
all of them funnel through one tiny contract: ``map`` an importable function
over a list of picklable tasks, preserving order.  ``SerialBackend`` runs
in-process (the default, and the reference for determinism checks);
``ProcessPoolBackend`` dispatches to a :class:`concurrent.futures`
process pool so independent tasks use every core.

Backends are deliberately dumb: all scheduling intelligence (deduplication,
donor ordering, wave construction) lives in :mod:`repro.engine.scheduler`,
which guarantees that the *task list* handed to a backend is identical
whichever backend executes it.  That is what makes parallel runs reproduce
serial results bit-for-bit.
"""

from __future__ import annotations

import inspect
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Iterable,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from repro.engine.threads import pin_blas_threads
from repro.errors import SpecificationError
from repro.obs.metrics import REGISTRY

T = TypeVar("T")
R = TypeVar("R")


@runtime_checkable
class ExecutionBackend(Protocol):
    """Minimal contract the flow needs from an executor."""

    #: Short identifier ('serial', 'process', ...).
    name: str

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task, returning results in task order."""
        ...

    def close(self) -> None:
        """Release any pooled resources; idempotent."""
        ...


class SerialBackend:
    """In-process execution — the determinism reference."""

    name = "serial"

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task in this process, in order."""
        return [fn(task) for task in tasks]

    def close(self) -> None:
        """No-op: nothing is pooled."""
        return None

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _init_pool_worker() -> None:
    """Process-pool worker initializer: pin BLAS, start an empty registry.

    Fork-started workers inherit the parent's populated metrics registry,
    and each spools its cumulative snapshot into the campaign's
    ``metrics.json``; zeroing it here keeps the parent's counts from being
    counted again once per worker.
    """
    pin_blas_threads()
    REGISTRY.reset()


class _PooledBackend:
    """Shared machinery for ``concurrent.futures``-backed backends.

    The pool is created lazily on the first ``map`` and reused across calls
    (waves of the synthesis scheduler share one pool); single-task maps run
    inline to skip dispatch latency.  Subclasses set ``name`` and
    ``executor_cls``.
    """

    name: str
    executor_cls: type

    def __init__(self, max_workers: int | None = None, chunksize: int = 1):
        """``max_workers=None`` means one worker per CPU."""
        if max_workers is not None and max_workers < 1:
            raise SpecificationError("max_workers must be >= 1")
        if chunksize < 1:
            raise SpecificationError("chunksize must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.chunksize = chunksize
        self._executor = None

    def _pool(self):
        if self._executor is None:
            # Pin the solver libraries to one thread per worker before the
            # pool exists: fork-started workers inherit the parent's
            # environment, and the initializer re-pins under spawn (see
            # :mod:`repro.engine.threads`).  User-exported values win.
            pin_blas_threads()
            kwargs: dict[str, Any] = {"max_workers": self.max_workers}
            if issubclass(self.executor_cls, ProcessPoolExecutor):
                kwargs["initializer"] = _init_pool_worker
            self._executor = self.executor_cls(**kwargs)
        return self._executor

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task through the pool, in task order."""
        task_list: Sequence[T] = list(tasks)
        if len(task_list) <= 1 or self.max_workers == 1:
            return [fn(task) for task in task_list]
        return list(self._pool().map(fn, task_list, chunksize=self.chunksize))

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ProcessPoolBackend(_PooledBackend):
    """``concurrent.futures.ProcessPoolExecutor``-backed execution.

    Task functions must be importable module-level callables and tasks must
    be picklable — every task dataclass in :mod:`repro.engine.scheduler`
    satisfies this.  ``chunksize`` batches tasks per worker dispatch to
    amortize pickling.
    """

    name = "process"
    executor_cls = ProcessPoolExecutor


class ThreadPoolBackend(_PooledBackend):
    """``concurrent.futures.ThreadPoolExecutor``-backed execution.

    Threads share the interpreter, so tasks need not be picklable and
    dispatch latency is tiny — the right trade for short analytic
    evaluations and for I/O-heavy work (persistent-cache reads), where the
    process pool's serialization cost dominates.  CPU-bound synthesis under
    the GIL still serializes; use ``ProcessPoolBackend`` for that.  Every
    task function used by the engine is reentrant (per-call
    ``numpy.random.default_rng`` state, no shared mutables), so threaded
    maps return the same values as serial ones.  ``chunksize`` is accepted
    for interface parity but has no effect on a thread pool.
    """

    name = "thread"
    executor_cls = ThreadPoolExecutor


def _make_queue_backend(max_workers=None, chunksize=1, queue_dir=None):
    """Factory for the file-backed work-queue backend (lazy import)."""
    from repro.engine.workqueue import QueueBackend

    return QueueBackend(
        max_workers=max_workers, chunksize=chunksize, queue_dir=queue_dir
    )


def _make_broker_backend(
    max_workers=None, chunksize=1, queue_dir=None, broker_url=None,
    wait_timeout=None,
):
    """Factory for the distributed broker backend (lazy import).

    ``wait_timeout`` semantics: ``None`` keeps the backend's finite default
    (:data:`~repro.engine.broker.DEFAULT_WAIT_TIMEOUT`); zero or negative
    means wait forever.
    """
    from repro.engine.broker import DEFAULT_WAIT_TIMEOUT, BrokerBackend

    if wait_timeout is None:
        wait_timeout = DEFAULT_WAIT_TIMEOUT
    elif wait_timeout <= 0:
        wait_timeout = None
    return BrokerBackend(
        broker_url=broker_url,
        queue_dir=queue_dir,
        max_workers=max_workers,
        chunksize=chunksize,
        wait_timeout=wait_timeout,
    )


#: Registered backend names -> factories.  Extension point: register a new
#: name here (or assign ``BACKENDS['myname'] = factory`` at import time) and
#: every FlowConfig / CLI ``--backend`` choice picks it up.  Factories that
#: accept a ``queue_dir`` / ``broker_url`` keyword receive the matching
#: :class:`FlowConfig` field.
BACKENDS: dict[str, Callable[..., ExecutionBackend]] = {
    "serial": lambda max_workers=None, chunksize=1: SerialBackend(),
    "thread": ThreadPoolBackend,
    "process": ProcessPoolBackend,
    "queue": _make_queue_backend,
    "broker": _make_broker_backend,
}


def make_backend(
    name: str,
    max_workers: int | None = None,
    chunksize: int = 1,
    queue_dir: str | None = None,
    broker_url: str | None = None,
    wait_timeout: float | None = None,
) -> ExecutionBackend:
    """Instantiate a backend by registered name.

    ``queue_dir``, ``broker_url``, and ``wait_timeout`` are forwarded only
    to factories whose signature accepts them (the work-queue and broker
    backends); other backends ignore them.
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise SpecificationError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    kwargs: dict[str, Any] = {"max_workers": max_workers, "chunksize": chunksize}
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        params = {}
    if "queue_dir" in params:
        kwargs["queue_dir"] = queue_dir
    if "broker_url" in params:
        kwargs["broker_url"] = broker_url
    if "wait_timeout" in params:
        kwargs["wait_timeout"] = wait_timeout
    return factory(**kwargs)


def create_backend(name: str, config: Any = None) -> ExecutionBackend:
    """The one construction path for execution backends.

    ``config`` is anything shaped like :class:`~repro.engine.config.FlowConfig`
    (only the execution knobs are read); ``None`` builds the backend with
    registry defaults.  The CLI, the campaign runner, and the service
    scheduler all come through here, so an unknown name fails identically
    everywhere — one :class:`~repro.errors.SpecificationError` the CLI
    renders as its single-line ``repro-adc: error:`` form.
    """
    if config is None:
        return make_backend(name)
    return make_backend(
        name,
        max_workers=getattr(config, "max_workers", None),
        chunksize=getattr(config, "chunksize", 1),
        queue_dir=getattr(config, "queue_dir", None),
        broker_url=getattr(config, "broker_url", None),
        wait_timeout=getattr(config, "broker_wait_timeout", None),
    )
