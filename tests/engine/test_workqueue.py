"""The file-backed work-queue backend: leases, acks, replay, determinism."""

import os
import pickle
from dataclasses import dataclass

import pytest

from repro.engine.backend import BACKENDS, make_backend
from repro.engine.workqueue import ACK_SUFFIX, LEASE_SUFFIX, QueueBackend, task_key


@dataclass(frozen=True)
class SquareTask:
    value: int


def square(task: SquareTask) -> int:
    return task.value * task.value


@dataclass(frozen=True)
class TrackedTask:
    value: int


CALLS: list[int] = []


def tracked(task: TrackedTask) -> int:
    CALLS.append(task.value)
    return task.value + 100


class TestBackendContract:
    def test_registered_in_backends(self):
        assert "queue" in BACKENDS
        backend = make_backend("queue", max_workers=2)
        try:
            assert backend.name == "queue"
        finally:
            backend.close()

    def test_map_preserves_task_order(self, tmp_path):
        with QueueBackend(max_workers=4, queue_dir=tmp_path) as backend:
            tasks = [SquareTask(v) for v in (5, 3, 9, 1, 7)]
            assert backend.map(square, tasks) == [25, 9, 81, 1, 49]

    def test_matches_serial_backend(self, tmp_path):
        serial = make_backend("serial")
        tasks = [SquareTask(v) for v in range(10)]
        expected = serial.map(square, tasks)
        with QueueBackend(max_workers=3, queue_dir=tmp_path) as backend:
            assert backend.map(square, tasks) == expected

    def test_empty_map(self, tmp_path):
        with QueueBackend(queue_dir=tmp_path) as backend:
            assert backend.map(square, []) == []

    def test_ephemeral_dir_removed_on_close(self):
        backend = QueueBackend(max_workers=1)
        queue_dir = backend.queue_dir
        backend.map(square, [SquareTask(2)])
        assert queue_dir.exists()
        backend.close()
        assert not queue_dir.exists()

    def test_explicit_dir_survives_close(self, tmp_path):
        backend = QueueBackend(max_workers=1, queue_dir=tmp_path)
        backend.map(square, [SquareTask(2)])
        backend.close()
        assert tmp_path.exists()
        assert any(p.name.endswith(ACK_SUFFIX) for p in tmp_path.iterdir())

    def test_invalid_workers_rejected(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            QueueBackend(max_workers=0)


class TestAckReplay:
    def test_acked_tasks_replay_instead_of_executing(self, tmp_path):
        CALLS.clear()
        tasks = [TrackedTask(v) for v in (1, 2, 3)]
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as first:
            first_results = first.map(tracked, tasks)
            assert first.executed == 3 and first.replayed == 0
        assert sorted(CALLS) == [1, 2, 3]

        CALLS.clear()
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as second:
            second_results = second.map(tracked, tasks)
            assert second.executed == 0 and second.replayed == 3
        assert CALLS == []  # nothing re-executed
        assert second_results == first_results

    def test_partial_acks_execute_only_the_tail(self, tmp_path):
        tasks = [TrackedTask(v) for v in (1, 2, 3, 4)]
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as first:
            first.map(tracked, tasks[:2])
        CALLS.clear()
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as second:
            results = second.map(tracked, tasks)
            assert second.replayed == 2 and second.executed == 2
        assert sorted(CALLS) == [3, 4]
        assert results == [101, 102, 103, 104]

    def test_duplicate_tasks_collapse_to_one_execution(self, tmp_path):
        CALLS.clear()
        with QueueBackend(max_workers=2, queue_dir=tmp_path) as backend:
            results = backend.map(
                tracked, [TrackedTask(5), TrackedTask(5), TrackedTask(5)]
            )
        assert results == [105, 105, 105]
        assert CALLS == [5]

    def test_corrupt_ack_degrades_to_reexecution(self, tmp_path):
        task = TrackedTask(9)
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as first:
            first.map(tracked, [task])
        (ack,) = [p for p in tmp_path.iterdir() if p.name.endswith(ACK_SUFFIX)]
        ack.write_bytes(b"not a pickle")
        CALLS.clear()
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as second:
            assert second.map(tracked, [task]) == [109]
            assert second.executed == 1
        assert CALLS == [9]
        # The entry was rewritten: a third run replays again.
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as third:
            assert third.map(tracked, [task]) == [109]
            assert third.replayed == 1


class TestCrashTolerance:
    def test_stale_lease_is_broken_and_task_reexecuted(self, tmp_path):
        # A lease without an ack is what a SIGKILLed worker leaves behind.
        # Use the pid of a process that has verifiably exited.
        import subprocess

        proc = subprocess.Popen(["true"])
        proc.wait()
        task = TrackedTask(7)
        key = task_key(tracked, task)
        (tmp_path / f"{key}{LEASE_SUFFIX}").write_text(str(proc.pid))
        CALLS.clear()
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as backend:
            assert backend.map(tracked, [task]) == [107]
            assert backend.broken_leases == 1
        assert CALLS == [7]
        assert not (tmp_path / f"{key}{LEASE_SUFFIX}").exists()

    def test_live_foreign_lease_is_waited_on_then_stolen(self, tmp_path):
        # A lease whose claimant pid is alive is NOT broken at dispatch —
        # the worker polls for its ack and only steals after the timeout.
        task = TrackedTask(8)
        key = task_key(tracked, task)
        (tmp_path / f"{key}{LEASE_SUFFIX}").write_text(str(os.getpid()))
        CALLS.clear()
        with QueueBackend(
            max_workers=1, queue_dir=tmp_path, lease_timeout=0.3
        ) as backend:
            assert backend.map(tracked, [task]) == [108]
            assert backend.broken_leases == 0  # sweep left the live lease
        assert CALLS == [8]  # stolen and executed after the timeout

    def test_corrupt_lease_json_is_swept(self, tmp_path):
        # A crash mid-write can leave truncated JSON in the lease; the
        # sweep must treat it as a dead claim, not crash the run.
        task = TrackedTask(11)
        key = task_key(tracked, task)
        (tmp_path / f"{key}{LEASE_SUFFIX}").write_text('{"pid": 12')
        CALLS.clear()
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as backend:
            assert backend.map(tracked, [task]) == [111]
            assert backend.broken_leases == 1
        assert CALLS == [11]
        assert not (tmp_path / f"{key}{LEASE_SUFFIX}").exists()

    def test_binary_garbage_lease_is_swept(self, tmp_path):
        task = TrackedTask(12)
        key = task_key(tracked, task)
        (tmp_path / f"{key}{LEASE_SUFFIX}").write_bytes(b"\x00\xff\xfe{pid")
        CALLS.clear()
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as backend:
            assert backend.map(tracked, [task]) == [112]
            assert backend.broken_leases == 1
        assert CALLS == [12]

    def test_json_lease_with_non_numeric_pid_is_swept(self, tmp_path):
        task = TrackedTask(13)
        key = task_key(tracked, task)
        (tmp_path / f"{key}{LEASE_SUFFIX}").write_text('{"pid": "soon"}')
        with QueueBackend(max_workers=1, queue_dir=tmp_path) as backend:
            assert backend.map(tracked, [task]) == [113]
            assert backend.broken_leases == 1

    def test_recycled_pid_lease_does_not_crash_the_run(self, tmp_path):
        # A stale lease whose recorded pid was recycled by an unrelated
        # live process (pid 1 is the classic case) looks alive to the
        # sweep, so it is conservatively left in place — the worker then
        # waits the lease out and steals it.  The run must complete either
        # way, with the correct result.
        task = TrackedTask(14)
        key = task_key(tracked, task)
        (tmp_path / f"{key}{LEASE_SUFFIX}").write_text('{"pid": 1}')
        CALLS.clear()
        with QueueBackend(
            max_workers=1, queue_dir=tmp_path, lease_timeout=0.3
        ) as backend:
            assert backend.map(tracked, [task]) == [114]
            assert backend.broken_leases == 0  # sweep kept the "live" claim
        assert CALLS == [14]  # stolen after the timeout and executed

    def test_long_task_heartbeats_keep_its_lease(self, tmp_path):
        # A task running past lease_timeout is NOT reclaimable: the executor
        # thread heartbeats its own lease, so a concurrent worker or resumed
        # run sweeping the directory sees a live claim the whole time (the
        # PR 4 pid-alive protection, now preserved under TTL'd leases).
        import threading
        import time

        from repro.engine.broker import DirectoryBroker

        def slow(task):
            time.sleep(0.8)
            return task.value + 100

        task = TrackedTask(21)
        key = task_key(slow, task)
        rival = DirectoryBroker(tmp_path, lease_ttl=0.3)
        lease_path = tmp_path / f"{key}{LEASE_SUFFIX}"
        reclaims = []

        def sweep():
            while not lease_path.exists():
                time.sleep(0.005)
            deadline = time.monotonic() + 0.7  # two TTLs into the run
            while time.monotonic() < deadline:
                if rival.reclaim():
                    reclaims.append(True)
                    return
                time.sleep(0.02)

        thief = threading.Thread(target=sweep)
        thief.start()
        with QueueBackend(
            max_workers=1, queue_dir=tmp_path, lease_timeout=0.3
        ) as backend:
            assert backend.map(slow, [task]) == [121]
            assert backend.executed == 1
        thief.join()
        assert not reclaims

    def test_failed_task_leaves_no_ack(self, tmp_path):
        def explode(task):
            raise RuntimeError("boom")

        with QueueBackend(max_workers=1, queue_dir=tmp_path) as backend:
            with pytest.raises(RuntimeError):
                backend.map(explode, [SquareTask(1)])
        assert not any(p.name.endswith(ACK_SUFFIX) for p in tmp_path.iterdir())
        # ...and no stale lease either: the task is retryable immediately.
        assert not any(p.name.endswith(LEASE_SUFFIX) for p in tmp_path.iterdir())


class TestTaskKeys:
    def test_key_is_stable_and_fn_scoped(self):
        task = SquareTask(3)
        assert task_key(square, task) == task_key(square, task)
        assert task_key(square, task) != task_key(tracked, task)
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

        with QueueBackend(max_workers=1, queue_dir=tmp_path) as backend:
            assert backend.map(touch, [opaque]) == [42]
            # No ack was written: nothing stable to key it by.
            assert not any(
                p.name.endswith(ACK_SUFFIX) for p in tmp_path.iterdir()
            )
