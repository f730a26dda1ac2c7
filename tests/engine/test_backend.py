"""Execution-backend contract tests."""

import dataclasses

import pytest

from repro.engine.backend import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    create_backend,
)
from repro.engine.broker import DirectoryBroker, HttpBroker
from repro.engine.config import FlowConfig
from repro.errors import SpecificationError


def _square(x: int) -> int:
    """Module-level so the process pool can pickle a reference to it."""
    return x * x


class TestSerialBackend:
    def test_map_preserves_order(self):
        backend = SerialBackend()
        assert backend.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_close_idempotent(self):
        backend = SerialBackend()
        backend.close()
        backend.close()

    def test_satisfies_protocol(self):
        assert isinstance(SerialBackend(), ExecutionBackend)


class TestProcessPoolBackend:
    def test_map_preserves_order(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            assert backend.map(_square, list(range(8))) == [x * x for x in range(8)]

    def test_single_task_runs_inline(self):
        backend = ProcessPoolBackend(max_workers=2)
        assert backend.map(_square, [5]) == [25]
        # No pool was spun up for a single task.
        assert backend._executor is None
        backend.close()

    def test_pool_reused_across_maps(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            backend.map(_square, [1, 2, 3])
            pool = backend._executor
            backend.map(_square, [4, 5, 6])
            assert backend._executor is pool

    def test_invalid_workers_rejected(self):
        with pytest.raises(SpecificationError):
            ProcessPoolBackend(max_workers=0)

    def test_satisfies_protocol(self):
        assert isinstance(ProcessPoolBackend(), ExecutionBackend)


class TestFactory:
    def test_registry_names(self):
        assert sorted(BACKENDS) == ["broker", "process", "serial"]

    def test_create_backend(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        backend = create_backend("process", FlowConfig(max_workers=3))
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecificationError) as excinfo:
            create_backend("gpu")
        assert str(excinfo.value) == (
            "unknown execution backend 'gpu' "
            "(known: broker, process, serial)"
        )

    def test_broker_location_picks_the_broker_kind(self, tmp_path):
        # One location field: a URL opens the HTTP broker, a path the
        # directory broker there.
        for location, kind in (
            ("http://127.0.0.1:1", HttpBroker),
            (str(tmp_path / "fleet"), DirectoryBroker),
        ):
            config = FlowConfig(backend="broker", broker=location)
            with create_backend("broker", config) as backend:
                assert type(backend.broker) is kind
        assert backend.broker.root == tmp_path / "fleet"

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_create_backend_builds_every_registered_name(self, name, tmp_path):
        config = FlowConfig(backend=name, max_workers=2, broker=str(tmp_path))
        backend = create_backend(name, config)
        try:
            assert isinstance(backend, ExecutionBackend)
            assert backend.name == name
        finally:
            backend.close()


class TestFlowConfig:
    def test_default_is_serial(self):
        assert isinstance(FlowConfig().make_backend(), SerialBackend)

    def test_process_config(self):
        backend = FlowConfig(backend="process", max_workers=2).make_backend()
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 2

    def test_serial_downgrade_for_workers(self):
        cfg = FlowConfig(backend="process", max_workers=4)
        serial = cfg.serial()
        assert serial.backend == "serial"
        # Budgets survive the downgrade; a serial config is returned as-is.
        assert serial.budget == cfg.budget
        assert FlowConfig().serial() is not None

    def test_make_cache_tiers(self, tmp_path):
        from repro.flow.cache import BlockCache, PersistentBlockCache
        from repro.tech import CMOS025

        cfg = FlowConfig(budget=77)
        cache = cfg.make_cache(CMOS025)
        assert type(cache) is BlockCache
        assert cache.budget == 77

        persistent = FlowConfig(cache_dir=str(tmp_path)).make_cache(CMOS025)
        assert isinstance(persistent, PersistentBlockCache)

    def test_knob_set(self):
        # Twelve knobs; the DC-kernel, speculation, chunk-size and
        # evaluation/behavioral kernel knobs are gone for good, and one
        # broker location replaced the queue directory, the broker URL and
        # the broker wait.
        assert [f.name for f in dataclasses.fields(FlowConfig)] == [
            "backend",
            "max_workers",
            "broker",
            "cache_dir",
            "budget",
            "retarget_budget",
            "seed",
            "retarget_seed",
            "verify_transient",
            "behavioral_draws",
            "behavioral_seed",
            "telemetry",
        ]
