"""Repo-wide fixtures.

The observability registry (:data:`repro.obs.metrics.REGISTRY`) is
process-global state — it backs ``template.compiled`` and
every ``broker.*``/``service.*`` counter — so without a reset between
tests one test's counters leak into the next test's assertions (the
historical failure mode this fixture exists to close: stats accumulated
across tests depending on execution order).

:func:`broker_workers` gives the broker backend a fleet without worker
processes, so the determinism suites can run a broker leg in-process.
"""

import contextlib
import threading

import pytest

from repro.engine.broker import DEFAULT_LEASE_TTL, DirectoryBroker
from repro.engine.worker import WorkerLoop
from repro.obs import metrics
from repro.obs.trace import configure_tracing
from repro.synth.evaluator import REJECT_STAGES


@pytest.fixture(autouse=True)
def _reset_telemetry():
    """Zero every metric and disable tracing around each test."""
    metrics.reset_all()
    configure_tracing(None)
    yield
    metrics.reset_all()
    configure_tracing(None)


@contextlib.contextmanager
def broker_workers(
    queue_dir,
    count: int = 2,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    prefix: str = "test-worker",
):
    """Run ``count`` :class:`WorkerLoop` threads on ``DirectoryBroker(queue_dir)``.

    A ``FlowConfig(backend="broker", broker=queue_dir)`` run inside the
    block executes its tasks on these threads, named ``<prefix>-<n>``.
    The block gets the workers' broker, so a ``BrokerBackend`` built on it
    shares their counters and ``lease_ttl``.  On exit the threads stop and
    join.
    """
    broker = DirectoryBroker(queue_dir, lease_ttl=lease_ttl)
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=WorkerLoop(
                broker,
                worker_id=f"{prefix}-{n}",
                poll_interval=0.01,
                lease_ttl=lease_ttl,
            ).run,
            args=(stop,),
            daemon=True,
        )
        for n in range(count)
    ]
    for thread in threads:
        thread.start()
    try:
        yield broker
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "a worker hung"


def fleet_for(config):
    """:func:`broker_workers` on ``config.broker`` for a broker config.

    Any other backend gets no workers, so a backend-parametrized test wraps
    every leg the same way.
    """
    if config.backend != "broker":
        return contextlib.nullcontext()
    return broker_workers(config.broker)


def rejected_candidates() -> int:
    """The registry's ``synth.rejected_candidates`` count so far."""
    return metrics.REGISTRY.snapshot()["counters"].get("synth.rejected_candidates", 0)


def rejected_at() -> dict[str, int]:
    """The registry's ``synth.rejected_at_<stage>`` counts so far, by stage."""
    counters = metrics.REGISTRY.snapshot()["counters"]
    return {stage: counters.get(f"synth.rejected_at_{stage}", 0) for stage in REJECT_STAGES}
