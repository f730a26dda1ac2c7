"""The ``queue`` backend: a directory broker drained by in-process workers.

Every case builds the backend through ``create_backend("queue", ...)``.
Task functions are ``repro`` module-level functions, because the workers
resolve only ``repro.*`` names — as they do for the production task
functions (``run_synthesis_job``, ``_evaluate_analytic``, ``_sweep_one``).
"""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.engine.backend import BACKENDS, create_backend
from repro.engine.broker import (
    ACK_SUFFIX,
    LEASE_SUFFIX,
    MAX_RETRIES,
    DirectoryBroker,
    check_key,
    task_key,
)
from repro.engine.config import FlowConfig
from repro.engine.persist import digest
from repro.engine.worker import WorkerLoop, fabric_probe
from repro.errors import SpecificationError
from repro.obs.trace import TRACER, configure_tracing
from repro.service import wire


def _queue(queue_dir=None, max_workers=1):
    return create_backend(
        "queue",
        FlowConfig(
            backend="queue",
            max_workers=max_workers,
            queue_dir=None if queue_dir is None else str(queue_dir),
        ),
    )


def _files(queue_dir, suffix):
    return [p for p in Path(queue_dir).iterdir() if p.name.endswith(suffix)]


def _start_map(backend, fn, tasks):
    """Run ``backend.map`` on a daemon thread: a hung map fails, not hangs."""
    results = []
    mapper = threading.Thread(
        target=lambda: results.extend(backend.map(fn, tasks)), daemon=True
    )
    mapper.start()
    return mapper, results


@dataclass(frozen=True)
class SquareTask:
    value: int


def square(task: SquareTask) -> int:
    return task.value * task.value


class TestBackendContract:
    def test_registered_in_backends(self):
        assert "queue" in BACKENDS
        with _queue(max_workers=2) as backend:
            assert backend.name == "queue"

    def test_map_preserves_task_order(self, tmp_path):
        tasks = [{"n": v} for v in (5, 3, 9, 1, 7)]
        with _queue(tmp_path, max_workers=2) as backend:
            assert backend.map(digest, tasks) == [digest(t) for t in tasks]

    def test_matches_serial_backend(self, tmp_path):
        tasks = [{"n": v} for v in range(10)]
        expected = create_backend("serial").map(digest, tasks)
        with _queue(tmp_path, max_workers=3) as backend:
            assert backend.map(digest, tasks) == expected

    def test_empty_map(self, tmp_path):
        with _queue(tmp_path) as backend:
            assert backend.map(digest, []) == []

    def test_ephemeral_dir_removed_on_close(self):
        backend = _queue()
        queue_dir = backend.broker.root
        backend.map(digest, [{"n": 2}])
        assert _files(queue_dir, ACK_SUFFIX)
        backend.close()
        assert not queue_dir.exists()

    def test_explicit_dir_survives_close(self, tmp_path):
        backend = _queue(tmp_path)
        backend.map(digest, [{"n": 2}])
        backend.close()
        assert tmp_path.exists()
        assert _files(tmp_path, ACK_SUFFIX)

    def test_invalid_workers_rejected(self):
        with pytest.raises(SpecificationError):
            _queue(max_workers=0)

    def test_tracer_worker_survives_a_map(self, tmp_path, monkeypatch):
        # WorkerLoop.run stamps its id on the process-global tracer; the
        # backend hands the campaign its own identity back.
        monkeypatch.setattr(TRACER, "worker", "campaign")
        with _queue(tmp_path, max_workers=2) as backend:
            backend.map(digest, [{"n": v} for v in range(4)])
            assert TRACER.worker == "campaign"
            backend.map(digest, [{"n": 9}])
        assert TRACER.worker == "campaign"

    def test_overlapping_maps_label_only_their_own_spans(self, tmp_path):
        # Two queue maps overlap in one process, as two service job workers
        # run them: the second starts while the first's task runs and ends
        # after it.  Each loop labels only its own spans, and no thread is
        # left with a finished loop's label.
        configure_tracing(tmp_path / "traces")
        running = threading.Event()
        ran_by: dict[str, str] = {}
        execute = WorkerLoop._execute

        def recording_execute(loop, key, envelope):
            ran_by[key[:12]] = loop.worker_id
            running.set()
            return execute(loop, key, envelope)

        labels_after: dict[str, str | None] = {}
        prefixes: dict[str, str] = {}

        def campaign(name, busy_s):
            with _queue(tmp_path / name) as backend:
                prefixes[name] = backend._worker_prefix
                backend.map(fabric_probe, [{"busy_s": busy_s, "campaign": name}])
            labels_after[name] = TRACER.worker

        with mock.patch.object(WorkerLoop, "_execute", recording_execute):
            first = threading.Thread(target=campaign, args=("a", 0.3), daemon=True)
            first.start()
            assert running.wait(timeout=30)
            second = threading.Thread(target=campaign, args=("b", 0.6), daemon=True)
            second.start()
            for thread in (first, second):
                thread.join(timeout=60)
                assert not thread.is_alive(), "a map hung"
        assert labels_after == {"a": None, "b": None}
        assert TRACER.worker is None
        spans = [
            json.loads(line)
            for path in (tmp_path / "traces").glob("*.jsonl")
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        tasks = [s for s in spans if s["name"] == "worker.task"]
        assert sorted(s["worker"] for s in tasks) == sorted(
            f"{prefix}-0" for prefix in prefixes.values()
        )
        assert prefixes["a"] != prefixes["b"]
        for task in tasks:
            assert task["worker"] == ran_by[task["attrs"]["key"]]


    def test_two_backends_in_one_process_run_distinct_worker_ids(self, tmp_path):
        # A service with two job workers holds two queue backends at once;
        # their loops label spans, census records and leases by worker id.
        ran_by: list[str] = []
        execute = WorkerLoop._execute

        def recording_execute(loop, key, envelope):
            ran_by.append(loop.worker_id)
            return execute(loop, key, envelope)

        with mock.patch.object(WorkerLoop, "_execute", recording_execute):
            with _queue(tmp_path / "a") as first, _queue(tmp_path / "b") as second:
                first.map(digest, [{"n": 1}])
                second.map(digest, [{"n": 2}])
        assert len(ran_by) == 2
        assert ran_by[0] != ran_by[1]


class TestAckReplay:
    def test_acked_tasks_replay_instead_of_executing(self, tmp_path):
        tasks = [{"n": v} for v in (1, 2, 3)]
        with _queue(tmp_path) as first:
            first_results = first.map(digest, tasks)
            assert first.dispatched == 3 and first.replayed == 0
            assert first.broker.counters["acked"] == 3
        with _queue(tmp_path) as second:
            assert second.map(digest, tasks) == first_results
            assert second.dispatched == 0 and second.replayed == 3
            assert second.broker.counters["acked"] == 0  # nothing re-executed

    def test_partial_acks_execute_only_the_tail(self, tmp_path):
        tasks = [{"n": v} for v in (1, 2, 3, 4)]
        with _queue(tmp_path) as first:
            first.map(digest, tasks[:2])
        with _queue(tmp_path) as second:
            assert second.map(digest, tasks) == [digest(t) for t in tasks]
            assert second.replayed == 2 and second.dispatched == 2
            assert second.broker.counters["acked"] == 2

    def test_duplicate_tasks_collapse_to_one_execution(self, tmp_path):
        with _queue(tmp_path, max_workers=2) as backend:
            results = backend.map(digest, [{"n": 5}, {"n": 5}, {"n": 5}])
            assert backend.dispatched == 1
            assert backend.broker.counters["acked"] == 1
        assert results == [digest({"n": 5})] * 3


class TestCrashTolerance:
    def _leftover_lease(self, queue_dir, body, task):
        """A lease (without ack) that a killed run left for ``task``."""
        key = task_key(digest, task)
        lease = Path(queue_dir) / f"{key}{LEASE_SUFFIX}"
        lease.parent.mkdir(parents=True, exist_ok=True)
        lease.write_bytes(body)
        return lease

    def test_dead_pid_lease_is_broken_and_task_reexecuted(self, tmp_path):
        proc = subprocess.Popen(["true"])
        proc.wait()  # a pid that has verifiably exited
        task = {"n": 7}
        lease = self._leftover_lease(tmp_path, str(proc.pid).encode(), task)
        with _queue(tmp_path) as backend:
            assert backend.map(digest, [task]) == [digest(task)]
            assert backend.broker.counters["reclaimed"] == 1
            assert backend.broker.counters["acked"] == 1
        assert not lease.exists()

    @pytest.mark.parametrize(
        "body",
        [b'{"pid": 12', b"\x00\xff\xfe{pid", b'{"pid": "soon"}'],
        ids=["corrupt-json", "binary-garbage", "non-numeric-pid"],
    )
    def test_garbage_lease_is_broken_at_once(self, tmp_path, body):
        # A crash mid-write can leave anything in a lease file; one that
        # records no claimant never holds the task up.
        task = {"n": 11}
        lease = self._leftover_lease(tmp_path, body, task)
        with _queue(tmp_path) as backend:
            start = time.monotonic()
            assert backend.map(digest, [task]) == [digest(task)]
            assert time.monotonic() - start < backend.broker.lease_ttl
            assert backend.broker.counters["reclaimed"] == 1
            assert backend.broker.counters["acked"] == 1
        assert not lease.exists()

    def test_recycled_pid_lease_is_stolen_after_one_ttl(self, tmp_path):
        # A legacy lease records a pid and no deadline.  Its pid was recycled
        # by a live process (pid 1 is the classic case), so only the TTL,
        # counted from the lease file's mtime, can expire it.
        task = {"n": 14}
        self._leftover_lease(tmp_path, b'{"pid": 1}', task)
        with _queue(tmp_path) as backend:
            backend.broker.lease_ttl = 0.3
            start = time.monotonic()
            mapper, results = _start_map(backend, digest, [task])
            mapper.join(timeout=5 * 0.3)
            assert not mapper.is_alive(), "map still blocked on the expired lease"
            assert time.monotonic() - start >= 0.25  # waited the TTL out
            assert results == [digest(task)]
            assert backend.broker.counters["reclaimed"] == 1
            assert backend.broker.counters["acked"] == 1

    def test_live_foreign_lease_is_waited_on_and_its_ack_replayed(self, tmp_path):
        task = {"n": 8}
        key = task_key(digest, task)
        holder = DirectoryBroker(tmp_path)
        assert holder.claim(key, "foreign")

        def finish():
            time.sleep(0.3)
            holder.ack(key, wire.encode_result(digest(task)), "foreign")

        finisher = threading.Thread(target=finish)
        finisher.start()
        try:
            with _queue(tmp_path, max_workers=2) as backend:
                assert backend.map(digest, [task]) == [digest(task)]
                assert backend.broker.counters["acked"] == 0  # never ran here
                assert backend.broker.counters["reclaimed"] == 0
        finally:
            finisher.join()

    def test_task_of_a_dead_foreign_holder_is_reexecuted(self, tmp_path):
        # The holder lives while map waits on it, then is SIGKILLed: the
        # local workers must notice and run the task themselves.
        task = {"n": 9}
        key = task_key(digest, task)
        holder = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys, time\n"
                "from repro.engine.broker import DirectoryBroker\n"
                "assert DirectoryBroker(sys.argv[1]).claim(sys.argv[2], 'victim')\n"
                "print('leased', flush=True)\n"
                "time.sleep(600)\n",
                str(tmp_path),
                key,
            ],
            stdout=subprocess.PIPE,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
            },
        )
        try:
            assert holder.stdout.readline().strip() == b"leased"
            with _queue(tmp_path) as backend:
                mapper, results = _start_map(backend, digest, [task])
                time.sleep(0.3)
                assert mapper.is_alive() and not results  # waiting on the holder
                holder.kill()
                holder.wait()
                mapper.join(timeout=10.0)
                assert not mapper.is_alive(), "nobody re-ran the dead holder's task"
                assert results == [digest(task)]
                assert backend.broker.counters["reclaimed"] == 1
                assert backend.broker.counters["acked"] == 1
        finally:
            holder.kill()
            holder.wait()

    def test_concurrent_reclaims_break_each_dead_lease_once(self, tmp_path):
        # Four workers sweep the same dead leases at once.  A sweep that
        # unlinked a lease another worker had just broken and re-claimed
        # would let the task be leased, and run, twice.
        proc = subprocess.Popen(["true"])
        proc.wait()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for rep in range(120):
                tasks = [{"rep": rep, "n": n} for n in range(4)]
                for task in tasks:
                    self._leftover_lease(
                        tmp_path / str(rep), str(proc.pid).encode(), task
                    )
                with _queue(tmp_path / str(rep), max_workers=4) as backend:
                    results = backend.map(digest, tasks)
                    counters = backend.broker.counters
                assert results == [digest(task) for task in tasks]
                assert counters["reclaimed"] == counters["leased"] == len(tasks)
        finally:
            sys.setswitchinterval(interval)

    def test_long_task_keeps_its_lease_past_the_ttl(self, tmp_path):
        # The executing worker heartbeats, so a rival sweeping the directory
        # two TTLs into the run sees a live claim the whole time.
        task = {"busy_s": 0.8}
        key = task_key(fabric_probe, task)
        rival = DirectoryBroker(tmp_path, lease_ttl=0.3)
        lease_path = tmp_path / f"{key}{LEASE_SUFFIX}"
        reclaims = []

        def sweep():
            while not lease_path.exists():
                time.sleep(0.005)
            deadline = time.monotonic() + 0.7
            while time.monotonic() < deadline:
                if rival.reclaim():
                    reclaims.append(True)
                    return
                time.sleep(0.02)

        thief = threading.Thread(target=sweep)
        thief.start()
        try:
            with _queue(tmp_path) as backend:
                backend.broker.lease_ttl = 0.3
                assert backend.map(fabric_probe, [task]) == [digest(task)]
                assert backend.broker.counters["acked"] == 1
        finally:
            thief.join()
        assert not reclaims

    def test_failing_task_surfaces_after_the_retries(self, tmp_path):
        # A task that raises is retried MAX_RETRIES times, then map raises
        # the broker's RuntimeError naming the task's own exception.
        with _queue(tmp_path) as backend:
            with pytest.raises(RuntimeError, match="ValueError: malformed task key"):
                backend.map(check_key, ["not-hex"])
            key = task_key(check_key, "not-hex")
            assert backend.broker.failure(key)["retries"] == MAX_RETRIES
        assert not _files(tmp_path, ACK_SUFFIX)
        assert not _files(tmp_path, LEASE_SUFFIX)


class TestTaskKeys:
    def test_key_is_stable_and_fn_scoped(self):
        task = SquareTask(3)
        assert task_key(square, task) == task_key(square, task)
        assert task_key(square, task) != task_key(digest, task)
        assert task_key(square, SquareTask(3)) != task_key(square, SquareTask(4))

    def test_synthesis_job_key_ignores_donor_wall_seconds(self):
        # The donor's wall_seconds is nondeterministic; the queue key must
        # not change across otherwise-identical runs or acks never replay.
        import dataclasses

        from repro.engine.scheduler import SynthesisJob, run_synthesis_job
        from repro.specs import AdcSpec, plan_stages
        from repro.enumeration.candidates import PipelineCandidate
        from repro.synth import synthesize_mdac
        from repro.tech import CMOS025

        spec = AdcSpec(resolution_bits=10)
        plan = plan_stages(spec, PipelineCandidate((3, 2), 10, 5))
        donor = synthesize_mdac(
            plan.mdacs[0], CMOS025, budget=30, seed=1, verify_transient=False
        )
        job = SynthesisJob(
            spec=plan.mdacs[1],
            tech=CMOS025,
            budget=30,
            seed=1,
            verify_transient=False,
            donor=donor,
        )
        twin = dataclasses.replace(
            job, donor=dataclasses.replace(donor, wall_seconds=donor.wall_seconds + 5)
        )
        assert task_key(run_synthesis_job, job) == task_key(run_synthesis_job, twin)
        # ...while a different search does not.
        other = dataclasses.replace(job, seed=2)
        assert task_key(run_synthesis_job, job) != task_key(run_synthesis_job, other)

    def test_undigestable_task_still_executes(self, tmp_path):
        class Opaque:
            def __reduce__(self):  # unpicklable and undigestable leaf
                raise TypeError("no")

            def __repr__(self):
                raise TypeError("no repr either")

        opaque = Opaque()

        def touch(task):
            return 42

        with _queue(tmp_path) as backend:
            assert backend.map(touch, [opaque]) == [42]
            # No ack was written: nothing stable to key it by.
            assert not _files(tmp_path, ACK_SUFFIX)
