"""Pluggable execution backends for the flow's embarrassingly parallel loops.

The flow has three fan-out points — per-candidate analytic evaluation,
per-wave block synthesis, and the per-resolution designer-rule sweep — and
all of them funnel through one tiny contract: ``map`` an importable function
over a list of picklable tasks, preserving order.  ``SerialBackend`` runs
in-process (the default, and the reference for determinism checks);
``ProcessPoolBackend`` dispatches to a :class:`concurrent.futures`
process pool so independent tasks use every core.  The ``queue`` and
``broker`` entries are one :class:`~repro.engine.broker.BrokerBackend`,
with and without in-process workers.

Backends are deliberately dumb: all scheduling intelligence (deduplication,
donor ordering, wave construction) lives in :mod:`repro.engine.scheduler`,
which guarantees that the *task list* handed to a backend is identical
whichever backend executes it.  That is what makes parallel runs reproduce
serial results bit-for-bit.
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING,
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

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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


# ProcessPoolBackend's base only: e2ebench/layers.py wraps _PooledBackend.map by name.
class _PooledBackend:
    """A lazily created ``concurrent.futures`` process pool.

    The pool is created on the first ``map`` and reused across calls
    (waves of the synthesis scheduler share one pool); single-task maps run
    inline to skip dispatch latency.
    """

    name: str

    def __init__(self, max_workers: int | None = None):
        """``max_workers=None`` means one worker per CPU."""
        if max_workers is not None and max_workers < 1:
            raise SpecificationError("max_workers must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self._executor: ProcessPoolExecutor | None = None

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Imported here: it loads multiprocessing, which only a run
            # that fills a pool needs.
            from concurrent.futures import ProcessPoolExecutor

            # Pin the solver libraries to one thread per worker before the
            # pool exists: fork-started workers inherit the parent's
            # environment, and the initializer re-pins under spawn (see
            # :mod:`repro.engine.threads`).  User-exported values win.
            pin_blas_threads()
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_init_pool_worker
            )
        return self._executor

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task through the pool, in task order."""
        task_list: Sequence[T] = list(tasks)
        if len(task_list) <= 1 or self.max_workers == 1:
            return [fn(task) for task in task_list]
        return list(self._pool().map(fn, task_list))

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
    satisfies this.
    """

    name = "process"


def _queue_backend(config: Any) -> ExecutionBackend:
    """``queue``: a directory broker drained by in-process workers.

    The directory is ``config.queue_dir``, or a private temporary one the
    backend removes on close.  One worker per CPU unless ``max_workers``.
    """
    from repro.engine.broker import BrokerBackend

    max_workers = getattr(config, "max_workers", None)
    if max_workers is not None and max_workers < 1:
        raise SpecificationError("max_workers must be >= 1")
    return BrokerBackend(
        queue_dir=getattr(config, "queue_dir", None),
        max_workers=max_workers or os.cpu_count() or 1,
    )


def _broker_backend(config: Any) -> ExecutionBackend:
    """``broker``: publish to a broker that remote workers drain.

    ``broker_wait_timeout`` semantics: unset keeps the backend's finite
    default (:data:`~repro.engine.broker.DEFAULT_WAIT_TIMEOUT`); zero or
    negative means wait forever.
    """
    from repro.engine.broker import DEFAULT_WAIT_TIMEOUT, BrokerBackend

    wait_timeout = getattr(config, "broker_wait_timeout", None)
    if wait_timeout is None:
        wait_timeout = DEFAULT_WAIT_TIMEOUT
    elif wait_timeout <= 0:
        wait_timeout = None
    return BrokerBackend(
        broker_url=getattr(config, "broker_url", None),
        queue_dir=getattr(config, "queue_dir", None),
        wait_timeout=wait_timeout,
    )


#: Registered backend names -> factories.  Each factory takes the
#: :class:`~repro.engine.config.FlowConfig`-shaped object that
#: :func:`create_backend` receives (``None`` means defaults) and reads only
#: the execution knobs it needs.
BACKENDS: dict[str, Callable[[Any], ExecutionBackend]] = {
    "serial": lambda config: SerialBackend(),
    "process": lambda config: ProcessPoolBackend(getattr(config, "max_workers", None)),
    "queue": _queue_backend,
    "broker": _broker_backend,
}


def create_backend(name: str, config: Any = None) -> ExecutionBackend:
    """The one construction path for execution backends.

    ``config`` is anything shaped like :class:`~repro.engine.config.FlowConfig`
    (only the execution knobs are read); ``None`` builds the backend with
    registry defaults.  The CLI, the campaign runner, and the service
    scheduler all come through here, so an unknown name fails identically
    everywhere — one :class:`~repro.errors.SpecificationError` the CLI
    renders as its single-line ``repro-adc: error:`` form.
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise SpecificationError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    return factory(config)
