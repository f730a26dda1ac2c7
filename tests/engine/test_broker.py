"""Broker protocol: directory broker semantics, worker loop, broker backend."""

import base64
import json
import os
import pickle
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.engine.broker import (
    ACK_SUFFIX,
    DEFAULT_LEASE_TTL,
    DEFAULT_WAIT_TIMEOUT,
    MAX_RETRIES,
    Broker,
    BrokerBackend,
    DirectoryBroker,
    HttpBroker,
    LEASE_SUFFIX,
    check_key,
    task_key,
)
from repro.engine.persist import digest
from repro.engine.worker import WorkerLoop, default_worker_id, resolve_task_fn
from repro.errors import SpecificationError
from repro.service import wire


def _key(n: int = 0) -> str:
    return digest({"test-task": n})


def _envelope(task, fn=digest) -> dict:
    return wire.encode_task(fn, task)


def _seed(broker: DirectoryBroker, n: int = 0) -> str:
    """Publish one digest task; returns its key."""
    key = _key(n)
    assert broker.submit(key, _envelope({"test-task": n}))
    return key


class TestCheckKey:
    def test_hex_digests_pass_through(self):
        key = digest({"x": 1})
        assert check_key(key) == key

    @pytest.mark.parametrize(
        "bad", ["", "short", "../../etc/passwd", "ABCDEF123456", "x" * 64, 42]
    )
    def test_malformed_keys_raise(self, bad):
        with pytest.raises(ValueError):
            check_key(bad)


class TestDirectoryBrokerLifecycle:
    def test_submit_lease_ack_result_roundtrip(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        leased = broker.lease("w1")
        assert leased is not None
        got_key, envelope = leased
        assert got_key == key
        fn_name, task = wire.decode_task(envelope)
        assert fn_name == "repro.engine.persist.digest"
        broker.ack(key, wire.encode_result(digest(task)), "w1")
        assert wire.decode_result(broker.result(key)) == digest({"test-task": 0})
        # Ack clears the lease and the pending envelope.
        assert not (tmp_path / f"{key}{LEASE_SUFFIX}").exists()
        assert broker.lease("w1") is None

    def test_submit_is_idempotent(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        assert broker.submit(key, _envelope({"test-task": 0})) is False
        broker.lease("w1")
        broker.ack(key, b"payload", "w1")
        # An acked task is never re-published either.
        assert broker.submit(key, _envelope({"test-task": 0})) is False

    def test_lease_is_exclusive(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        _seed(broker)
        assert broker.lease("w1") is not None
        assert broker.lease("w2") is None

    def test_nack_counts_retries_and_releases(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        broker.lease("w1")
        assert broker.nack(key, "w1", "boom") == 1
        assert broker.failure(key) == {"retries": 1, "error": "boom"}
        # Released: another worker can lease and fail it again.
        assert broker.lease("w2") is not None
        assert broker.nack(key, "w2", "boom again") == 2

    def test_retry_exhausted_tasks_stop_leasing(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        for _ in range(MAX_RETRIES):
            assert broker.lease("w1") is not None
            broker.nack(key, "w1", "persistent failure")
        assert broker.failure(key)["retries"] == MAX_RETRIES
        assert broker.lease("w1") is None  # poisoned: evidence kept, no re-lease

    def test_discard_reopens_a_completed_task(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        broker.lease("w1")
        broker.ack(key, b"corrupt", "w1")
        broker.discard(key)
        assert broker.result(key) is None

    def test_stats_census(self, tmp_path):
        broker = DirectoryBroker(tmp_path, lease_ttl=5.0)
        _seed(broker, 0)
        _seed(broker, 1)
        broker.lease("w1")
        stats = broker.stats()
        assert stats["pending"] == 2
        assert stats["leases"] == 1
        assert stats["acks"] == 0
        assert stats["submitted"] == 2
        assert stats["lease_ttl"] == 5.0


class TestDirectoryBrokerLeases:
    def test_heartbeat_extends_the_deadline(self, tmp_path):
        broker = DirectoryBroker(tmp_path, lease_ttl=10.0)
        key = _key()
        assert broker.claim(key, "w1")
        lease_path = tmp_path / f"{key}{LEASE_SUFFIX}"
        before = wire.parse_lease(lease_path.read_text())["deadline"]
        time.sleep(0.05)
        assert broker.heartbeat(key, "w1") is True
        after = wire.parse_lease(lease_path.read_text())["deadline"]
        assert after > before

    def test_heartbeat_keeps_a_lease_alive_past_its_ttl(self, tmp_path):
        broker = DirectoryBroker(tmp_path, lease_ttl=0.2)
        key = _key()
        assert broker.claim(key, "w1")
        deadline = time.monotonic() + 0.6  # three TTLs
        while time.monotonic() < deadline:
            assert broker.heartbeat(key, "w1") is True
            assert broker.reclaim() == 0
            time.sleep(0.05)
        # The beat stops; the TTL now runs out and the lease is reclaimed.
        time.sleep(0.3)
        assert broker.reclaim() == 1
        assert broker.claim(key, "w2")

    def test_heartbeat_refuses_a_foreign_worker(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _key()
        assert broker.claim(key, "w1")
        assert broker.heartbeat(key, "intruder") is False
        assert broker.heartbeat(key, "w1") is True

    def test_heartbeat_reports_a_lost_lease(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _key()
        assert broker.heartbeat(key, "w1") is False

    def test_live_lease_is_not_reclaimed(self, tmp_path):
        broker = DirectoryBroker(tmp_path, lease_ttl=60.0)
        key = _key()
        assert broker.claim(key, "w1")  # our own live pid, unexpired TTL
        assert broker.reclaim() == 0

    def test_expired_deadline_is_reclaimed_even_with_a_live_pid(self, tmp_path):
        # The recycled-pid case: the worker died, its pid was reused by a
        # live process (pid 1 here), but the lease still dies at TTL expiry.
        broker = DirectoryBroker(tmp_path)
        key = _key()
        lease_path = tmp_path / f"{key}{LEASE_SUFFIX}"
        lease_path.write_text(
            wire.lease_body(
                pid=1, worker="w1", host=broker.host, deadline=time.time() - 1.0
            )
        )
        assert broker.reclaim() == 1
        assert not lease_path.exists()

    def test_dead_local_pid_is_reclaimed_before_the_ttl(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _key()
        lease_path = tmp_path / f"{key}{LEASE_SUFFIX}"
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        lease_path.write_text(
            wire.lease_body(
                pid=proc.pid,
                worker="w1",
                host=broker.host,
                deadline=time.time() + 3600.0,  # TTL far away: pid check wins
            )
        )
        assert broker.reclaim() == 1

    def test_a_sweep_never_breaks_a_lease_claimed_after_it_looked(self, tmp_path):
        # Two in-process workers sweep one dead lease.  The first breaks it
        # and re-claims the task while the second is between reading the
        # dead lease and unlinking it; the second must not unlink the new,
        # live claim.
        broker = DirectoryBroker(tmp_path)
        key = _key()
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        (tmp_path / f"{key}{LEASE_SUFFIX}").write_text(json.dumps({"pid": proc.pid}))
        looked, claimed = threading.Event(), threading.Event()
        is_stale = broker._lease_is_stale

        def slow_is_stale(k):
            stale = is_stale(k)
            if threading.current_thread() is not threading.main_thread():
                looked.set()
                claimed.wait(timeout=0.5)
            return stale

        broker._lease_is_stale = slow_is_stale
        sweeper = threading.Thread(target=broker.break_if_stale, args=(key,))
        sweeper.start()
        assert looked.wait(timeout=5.0)
        broker.break_if_stale(key)
        assert broker.claim(key, "w1")
        claimed.set()
        sweeper.join(timeout=5.0)
        assert not sweeper.is_alive()
        info = broker.lease_info(key)
        assert info is not None and info["worker"] == "w1"

    @pytest.mark.parametrize(
        "body",
        [
            '{"pid": 1e400}',
            "1e400",
            '{"deadline": NaN}',
            '{"pid": 4, "deadline": Infinity}',
            '{"pid": %d, "deadline": Infinity}' % os.getpid(),
            '{"pid": %d, "deadline": NaN}' % os.getpid(),
        ],
        ids=[
            "pid-1e400",
            "bare-1e400",
            "nan-deadline",
            "pid-4-infinite-deadline",
            "live-pid-infinite-deadline",
            "live-pid-nan-deadline",
        ],
    )
    def test_an_hour_old_lease_without_a_usable_deadline_expires(self, tmp_path, body):
        # A pid no process can have reads as no claimant, and a deadline
        # no clock reaches as none: the lease expires one TTL after its
        # mtime (or at once without a claimant) instead of never.
        broker = DirectoryBroker(tmp_path)
        key = _key()
        lease = tmp_path / f"{key}{LEASE_SUFFIX}"
        lease.write_text(body)
        an_hour_ago = time.time() - 3600.0
        os.utime(lease, (an_hour_ago, an_hour_ago))
        assert broker._lease_is_stale(key) is True
        assert broker.statuses([key])[key]["leased"] is False
        assert broker.reclaim() == 1

    def test_legacy_pid_only_lease_still_parses(self, tmp_path):
        # PR 4 leases were {"pid": N} with no deadline: keep iff pid alive.
        broker = DirectoryBroker(tmp_path)
        alive, dead = _key(1), _key(2)
        (tmp_path / f"{alive}{LEASE_SUFFIX}").write_text(
            json.dumps({"pid": os.getpid()})
        )
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        (tmp_path / f"{dead}{LEASE_SUFFIX}").write_text(
            json.dumps({"pid": proc.pid})
        )
        assert broker.reclaim() == 1
        assert (tmp_path / f"{alive}{LEASE_SUFFIX}").exists()
        assert not (tmp_path / f"{dead}{LEASE_SUFFIX}").exists()

    def test_sigkilled_claimer_is_reclaimed(self, tmp_path):
        """A worker SIGKILLed mid-task leaves a lease the broker breaks."""
        broker = DirectoryBroker(tmp_path, lease_ttl=60.0)
        key = _seed(broker)
        claimer = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys, time\n"
                "from repro.engine.broker import DirectoryBroker\n"
                f"b = DirectoryBroker({str(tmp_path)!r}, lease_ttl=60.0)\n"
                f"assert b.lease('victim') is not None\n"
                "print('leased', flush=True)\n"
                "time.sleep(600)\n",
            ],
            stdout=subprocess.PIPE,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
            },
        )
        try:
            assert claimer.stdout.readline().strip() == b"leased"
            assert broker.lease("survivor") is None  # exclusively held
            claimer.kill()
            claimer.wait()
            # The pid is dead on this host: reclaimed without waiting the TTL.
            leased = broker.lease("survivor")
            assert leased is not None and leased[0] == key
            assert broker.counters["reclaimed"] == 1
        finally:
            claimer.kill()
            claimer.wait()


class TestLeaseOwnership:
    """A reclaimed worker must not clobber the new holder's lease."""

    def test_nack_from_a_lost_lease_burns_no_retry(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        assert broker.lease("w1") is not None
        broker.release(key)  # reclaim; w2 picks the task up
        assert broker.claim(key, "w2")
        # The zombie's failure report is dropped: no record, no release.
        assert broker.nack(key, "w1", "zombie boom") == 0
        assert broker.failure(key) is None
        assert (tmp_path / f"{key}{LEASE_SUFFIX}").exists()
        # The rightful holder's nack still counts.
        assert broker.nack(key, "w2", "real boom") == 1

    def test_nack_with_no_lease_at_all_burns_no_retry(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        assert broker.nack(key, "w1", "never leased") == 0
        assert broker.failure(key) is None

    def test_three_zombie_nacks_cannot_poison_a_task(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        assert broker.claim(key, "holder")
        for _ in range(MAX_RETRIES):
            broker.nack(key, "zombie", "boom")
        assert broker.failure(key) is None
        assert (tmp_path / f"{key}{LEASE_SUFFIX}").exists()

    def test_ack_from_a_lost_lease_keeps_the_new_holders_claim(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        assert broker.lease("w1") is not None
        broker.release(key)
        assert broker.claim(key, "w2")
        # Results are deterministic, so the zombie's ack is stored — but the
        # live lease stays w2's until its own ack (or the acked-lease sweep).
        broker.ack(key, wire.encode_result(digest({"test-task": 0})), "w1")
        assert broker.result(key) is not None
        info = broker.lease_info(key)
        assert info is not None and info["worker"] == "w2"

    def test_owned_ack_releases_the_lease(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        assert broker.lease("w1") is not None
        broker.ack(key, b"payload", "w1")
        assert not (tmp_path / f"{key}{LEASE_SUFFIX}").exists()

    def test_legacy_workerless_lease_is_owned_by_its_pid(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _key()
        assert broker.claim(key)  # worker=None: in-process queue-style claim
        assert broker.release_if_owner(key, None) is True
        assert not (tmp_path / f"{key}{LEASE_SUFFIX}").exists()


class TestStatuses:
    def test_statuses_report_ack_lease_and_failure(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        acked, running, failed, idle = (_seed(broker, n) for n in range(4))
        broker.claim(acked, "w1")
        broker.ack(acked, b"payload", "w1")
        broker.claim(running, "w1")
        broker.claim(failed, "w2")
        broker.nack(failed, "w2", "boom")
        statuses = broker.statuses([acked, running, failed, idle])
        assert statuses[acked]["acked"] is True
        assert statuses[running]["leased"] is True
        assert statuses[failed]["failure"] == {"retries": 1, "error": "boom"}
        assert statuses[idle] == {
            "acked": False,
            "leased": False,
            "failure": None,
        }

    def test_a_stale_lease_does_not_count_as_leased(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _key()
        (tmp_path / f"{key}{LEASE_SUFFIX}").write_text(
            wire.lease_body(
                pid=1, worker="w1", host=broker.host, deadline=time.time() - 1.0
            )
        )
        assert broker.statuses([key])[key]["leased"] is False

    def test_statuses_validate_keys(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        with pytest.raises(ValueError):
            broker.statuses(["../../etc/passwd"])


class TestWorkerLoop:
    def test_executes_and_acks(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _seed(broker)
        loop = WorkerLoop(broker, worker_id="w1", max_tasks=1, poll_interval=0.01)
        counters = loop.run()
        assert counters["executed"] == 1 and counters["failed"] == 0
        assert wire.decode_result(broker.result(key)) == digest({"test-task": 0})

    def test_failing_task_is_nacked_with_the_error(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = digest({"fn": "repro.engine.broker.check_key", "task": "not-hex"})
        broker.submit(key, wire.encode_task(check_key, "not-hex"))
        loop = WorkerLoop(broker, worker_id="w1", max_tasks=1, poll_interval=0.01)
        counters = loop.run()
        assert counters["failed"] == 1
        failure = broker.failure(key)
        assert failure["retries"] == 1
        assert failure["error"].startswith("ValueError:")

    def test_rejects_functions_outside_repro(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _key()
        envelope = _envelope("echo pwned")
        envelope["fn"] = "os.system"
        broker.submit(key, envelope)
        loop = WorkerLoop(broker, worker_id="w1", idle_exit=0.0, poll_interval=0.01)
        counters = loop.run()
        # The rejection nacks; the loop re-leases until the retry budget is
        # spent, then the task is poisoned and the idle exit fires.
        assert counters["rejected"] == MAX_RETRIES and counters["executed"] == 0
        assert "outside the repro package" in broker.failure(key)["error"]

    def test_rejects_newer_schema_envelopes(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = _key()
        envelope = _envelope({"test-task": 0})
        envelope["schema"] = wire.WIRE_SCHEMA + 1
        broker.submit(key, envelope)
        loop = WorkerLoop(broker, worker_id="w1", idle_exit=0.0, poll_interval=0.01)
        assert loop.run()["rejected"] == MAX_RETRIES

    def test_an_unreadable_body_is_rejected_and_the_loop_runs_on(self, tmp_path):
        # A BYTEARRAY8 longer than sys.maxsize: the unpickler raised
        # OverflowError, which ended WorkerLoop.run.
        broker = DirectoryBroker(tmp_path)
        bad = _key(1)
        envelope = _envelope({"test-task": 1})
        envelope["task_pkl"] = base64.b64encode(
            b"\x96" + struct.pack("<Q", 2**63 + 5)
        ).decode("ascii")
        broker.submit(bad, envelope)
        good = _seed(broker)
        loop = WorkerLoop(broker, worker_id="w1", idle_exit=0.0, poll_interval=0.01)
        counters = loop.run()
        assert counters["rejected"] == MAX_RETRIES
        assert counters["executed"] == 1
        assert broker.failure(bad)["error"].startswith("rejected envelope:")
        assert wire.decode_result(broker.result(good)) == digest({"test-task": 0})

    def test_heartbeats_keep_the_lease_during_a_slow_task(self, tmp_path, monkeypatch):
        # TTL 0.6 with a ~0.2s heartbeat cadence leaves ~0.4s of scheduling
        # slack before a late beat could let the rival reclaim the lease.
        broker = DirectoryBroker(tmp_path, lease_ttl=0.6)
        # The slow task lives in this test module, outside the allow-list;
        # pin the resolver so the loop can still run it.
        monkeypatch.setattr(
            "repro.engine.worker.resolve_task_fn", lambda name: _slow_digest
        )
        key = task_key(_slow_digest, {"n": 1})
        broker.submit(key, wire.encode_task(_slow_digest, {"n": 1}))
        loop = WorkerLoop(
            broker, worker_id="w1", lease_ttl=0.6, max_tasks=1, poll_interval=0.01
        )
        stolen = []
        rival = DirectoryBroker(tmp_path, lease_ttl=0.6)
        lease_path = tmp_path / f"{key}{LEASE_SUFFIX}"

        def _try_steal():
            # Wait for the worker to claim first (racing it for the initial
            # lease is not the point), then poll well past the TTL: the
            # running worker's heartbeats must keep the lease
            # un-reclaimable the whole time.
            while not lease_path.exists():
                time.sleep(0.005)
            deadline = time.monotonic() + 0.9
            while time.monotonic() < deadline:
                if rival.lease("rival") is not None:
                    stolen.append(True)
                    return
                time.sleep(0.02)

        thief = threading.Thread(target=_try_steal)
        thief.start()
        counters = loop.run()
        thief.join()
        assert counters["executed"] == 1
        assert not stolen
        assert wire.decode_result(broker.result(key)) == digest({"n": 1})


def _slow_digest(task):
    """A deliberately slow task (module-level: resolvable by workers)."""
    time.sleep(1.0)
    return digest(task)


class TestBrokerBackend:
    def test_requires_a_broker_source(self):
        with pytest.raises(SpecificationError):
            BrokerBackend()

    def test_map_through_a_worker_thread(self, tmp_path):
        backend = BrokerBackend(queue_dir=tmp_path, poll_interval=0.01)
        worker = WorkerLoop(
            DirectoryBroker(tmp_path),
            worker_id="w1",
            poll_interval=0.01,
            idle_exit=2.0,
        )
        thread = threading.Thread(target=worker.run)
        thread.start()
        tasks = [{"n": i} for i in range(4)] + [{"n": 0}]  # one duplicate
        try:
            results = backend.map(digest, tasks)
        finally:
            thread.join()
        assert results == [digest(t) for t in tasks]
        assert backend.dispatched == 4  # the duplicate shipped once

    def test_map_replays_existing_acks_without_workers(self, tmp_path):
        backend = BrokerBackend(queue_dir=tmp_path, poll_interval=0.01)
        worker = WorkerLoop(
            DirectoryBroker(tmp_path), worker_id="w1", poll_interval=0.01, idle_exit=1.0
        )
        thread = threading.Thread(target=worker.run)
        thread.start()
        tasks = [{"n": i} for i in range(3)]
        first = backend.map(digest, tasks)
        thread.join()
        # Second map: every ack replays; nobody needs to execute anything.
        replay = BrokerBackend(queue_dir=tmp_path)
        assert replay.map(digest, tasks) == first
        assert replay.replayed == 3 and replay.dispatched == 0

    def test_unkeyed_tasks_run_locally(self, tmp_path):
        backend = BrokerBackend(queue_dir=tmp_path, wait_timeout=0.1)
        # Mixed-type dict keys defeat the structural digest, so this task
        # has no stable identity and must execute in-process.
        probe = {1: "a", "b": 2}
        assert task_key(repr, probe) is None
        results = backend.map(repr, [probe])
        assert results == [repr(probe)]
        assert backend.dispatched == 0

    def test_retry_exhaustion_surfaces_the_recorded_error(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        backend = BrokerBackend(broker, poll_interval=0.01)
        key = task_key(check_key, "not-hex")
        worker = WorkerLoop(broker, worker_id="w1", poll_interval=0.01, idle_exit=2.0)
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            with pytest.raises(RuntimeError, match="ValueError"):
                backend.map(check_key, ["not-hex"])
        finally:
            thread.join()
        assert broker.failure(key)["retries"] == MAX_RETRIES

    def test_no_workers_times_out_with_a_hint(self, tmp_path):
        backend = BrokerBackend(
            queue_dir=tmp_path, poll_interval=0.01, wait_timeout=0.05
        )
        with pytest.raises(RuntimeError, match="workers attached"):
            backend.map(digest, [{"n": 1}])

    def test_wait_timeout_defaults_finite(self, tmp_path):
        # --backend broker with zero workers must eventually diagnose, not
        # block map() forever.
        backend = BrokerBackend(queue_dir=tmp_path)
        assert backend.wait_timeout == DEFAULT_WAIT_TIMEOUT

    def test_a_live_lease_counts_as_progress(self, tmp_path):
        # A worker mid-task (holding a live lease) resets the no-progress
        # clock even when no ack lands within wait_timeout.
        broker = DirectoryBroker(tmp_path, lease_ttl=60.0)
        backend = BrokerBackend(broker, poll_interval=0.01, wait_timeout=0.15)
        key = task_key(digest, {"n": 7})

        def _slow_holder():
            # Claim shortly after dispatch, hold well past wait_timeout,
            # then ack — the backend must wait it out, not raise.
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if broker.claim(key, "slow"):
                    break
                time.sleep(0.005)
            time.sleep(0.4)
            broker.ack(key, wire.encode_result(digest({"n": 7})), "slow")

        holder = threading.Thread(target=_slow_holder)
        holder.start()
        try:
            assert backend.map(digest, [{"n": 7}]) == [digest({"n": 7})]
        finally:
            holder.join()

    def test_a_deadline_less_lease_of_a_live_pid_expires_after_one_ttl(
        self, tmp_path
    ):
        # A legacy lease ({"pid": N}, no deadline) whose pid is alive — pid 1
        # after recycling — must not count as progress forever: it expires
        # one TTL after its mtime and the attached worker runs the task.
        broker = DirectoryBroker(tmp_path, lease_ttl=0.3)
        key = task_key(digest, {"n": 3})
        (tmp_path / f"{key}{LEASE_SUFFIX}").write_text('{"pid": 1}')
        backend = BrokerBackend(broker, poll_interval=0.01, wait_timeout=5.0)
        worker = WorkerLoop(
            DirectoryBroker(tmp_path, lease_ttl=0.3),
            worker_id="w1",
            lease_ttl=0.3,
            poll_interval=0.01,
        )
        stop = threading.Event()
        thread = threading.Thread(target=worker.run, args=(stop,))
        results = []
        mapper = threading.Thread(
            target=lambda: results.extend(backend.map(digest, [{"n": 3}])),
            daemon=True,  # a hung map must not hang the test session
        )
        thread.start()
        mapper.start()
        mapper.join(timeout=5 * 0.3)
        stop.set()
        thread.join()
        assert not mapper.is_alive(), "map still blocked on the expired lease"
        assert results == [digest({"n": 3})]

    def test_corrupt_ack_is_discarded_and_reexecuted(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        key = task_key(digest, {"n": 1})
        (tmp_path / f"{key}{ACK_SUFFIX}").write_bytes(b"not a pickle")
        backend = BrokerBackend(broker, poll_interval=0.01)
        worker = WorkerLoop(broker, worker_id="w1", poll_interval=0.01, idle_exit=2.0)
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            assert backend.map(digest, [{"n": 1}]) == [digest({"n": 1})]
        finally:
            thread.join()
        assert backend.replayed == 0 and backend.dispatched == 1

    def test_refused_fresh_acks_rerun_the_task_then_fail_fast(self, tmp_path, monkeypatch):
        # A worker's ack deletes the task envelope, so an ack the decoder
        # refuses must be published again, not waited on until the
        # no-progress timeout blames missing workers.
        def refuse(payload):
            raise pickle.UnpicklingError("global 'os.system' is forbidden\nhere")

        monkeypatch.setattr(wire, "decode_result", refuse)
        backend = BrokerBackend(queue_dir=tmp_path, max_workers=1, wait_timeout=5)
        start = time.monotonic()
        try:
            with pytest.raises(RuntimeError) as exc:
                backend.map(digest, [{"n": 1}])
            counters = backend.broker.counters
        finally:
            backend.close()
        message = str(exc.value)
        assert time.monotonic() - start < 5
        assert "\n" not in message
        assert task_key(digest, {"n": 1})[:12] in message
        assert f"{MAX_RETRIES} time(s)" in message
        assert "UnpicklingError: global 'os.system' is forbidden here" in message
        assert counters["acked"] == MAX_RETRIES

    @pytest.mark.parametrize("local", [True, False], ids=["queue", "broker"])
    def test_a_refused_fresh_ack_reruns_the_task(self, tmp_path, monkeypatch, local):
        decode = wire.decode_result
        calls = []

        def refuse_once(payload):
            calls.append(payload)
            if len(calls) == 1:
                raise ValueError("truncated ack")
            return decode(payload)

        monkeypatch.setattr(wire, "decode_result", refuse_once)
        broker = DirectoryBroker(tmp_path)
        backend = BrokerBackend(
            broker, max_workers=1 if local else 0, poll_interval=0.01, wait_timeout=5
        )
        worker = WorkerLoop(broker, worker_id="w1", poll_interval=0.01, idle_exit=2.0)
        thread = threading.Thread(target=worker.run)
        if not local:
            thread.start()
        try:
            assert backend.map(digest, [{"n": 2}]) == [digest({"n": 2})]
        finally:
            if not local:
                thread.join()
            backend.close()
        assert len(calls) == 2
        assert broker.counters["acked"] == 2
        assert backend.dispatched == 1


class TestProtocolConformance:
    def test_both_brokers_satisfy_the_protocol(self, tmp_path):
        assert isinstance(DirectoryBroker(tmp_path), Broker)
        assert isinstance(HttpBroker("http://127.0.0.1:1"), Broker)

    def test_default_worker_id_is_host_pid(self):
        assert default_worker_id().endswith(f"-{os.getpid()}")

    def test_resolve_rejects_non_repro_names(self):
        for name in ("os.system", "builtins.eval", "repro_evil.fn", "digest"):
            with pytest.raises(ValueError):
                resolve_task_fn(name)

    def test_default_lease_ttl_is_one_minute(self):
        assert DEFAULT_LEASE_TTL == 60.0


class TestWorkerCensus:
    def test_first_lease_registers_even_on_an_empty_queue(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        assert broker.lease("w-1") is None
        (record,) = broker.workers()
        assert record["worker"] == "w-1"
        assert record["last_seen"] >= record["registered_unix"]

    def test_heartbeat_refreshes_last_seen(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        _seed(broker)
        key, _ = broker.lease("w-1")
        (before,) = broker.workers()
        time.sleep(0.05)
        assert broker.heartbeat(key, "w-1")
        (after,) = broker.workers()
        assert after["last_seen"] > before["last_seen"]
        assert after["registered_unix"] == before["registered_unix"]

    def test_stale_workers_drop_after_missed_ttls(self, tmp_path):
        broker = DirectoryBroker(tmp_path, lease_ttl=0.01)
        broker.register_worker({"worker": "w-old"})
        time.sleep(0.05)  # > STALE_AFTER_TTLS * lease_ttl = 0.03s
        broker.register_worker({"worker": "w-new"})
        assert [r["worker"] for r in broker.workers()] == ["w-new"]
        # The stale record stays on disk: max_age <= 0 lists everything.
        everyone = {r["worker"] for r in broker.workers(max_age=0)}
        assert everyone == {"w-old", "w-new"}

    def test_census_survives_a_broker_restart(self, tmp_path):
        DirectoryBroker(tmp_path).register_worker(
            {"worker": "w-1", "executed": 7}
        )
        reborn = DirectoryBroker(tmp_path)
        (record,) = reborn.workers()
        assert record["worker"] == "w-1" and record["executed"] == 7

    def test_reregistration_merges_and_keeps_registration_time(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        broker.register_worker({"worker": "w-1", "host": "a", "executed": 1})
        time.sleep(0.02)
        broker.register_worker({"worker": "w-1", "executed": 5})
        (record,) = broker.workers()
        assert record["executed"] == 5
        assert record["host"] == "a"  # untouched fields survive the merge
        assert record["last_seen"] > record["registered_unix"]

    def test_record_requires_a_worker_id(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        with pytest.raises(ValueError):
            broker.register_worker({"worker": "   "})
        with pytest.raises(ValueError):
            broker.register_worker({})

    def test_worker_ids_are_sanitized_into_the_census_dir(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        broker.register_worker({"worker": "../../etc/passwd"})
        path = broker._worker_path("../../etc/passwd")
        assert path.parent == tmp_path / "workers"
        assert path.exists()
        (record,) = broker.workers()
        assert record["worker"] == "../../etc/passwd"  # id survives verbatim

    def test_stats_include_the_fleet(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        broker.register_worker({"worker": "w-1"})
        stats = broker.stats()
        assert [r["worker"] for r in stats["workers"]] == ["w-1"]

    def test_worker_loop_publishes_a_full_census_record(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        _seed(broker)
        loop = WorkerLoop(broker, worker_id="w-loop", max_tasks=1, poll_interval=0.01)
        loop.run()
        (record,) = broker.workers()
        assert record["worker"] == "w-loop"
        assert record["executed"] == 1 and record["failed"] == 0
        assert record["pid"] == os.getpid()
        assert record["busy_seconds"] >= 0.0
        assert record["current"] is None  # idle after the task acked
        assert isinstance(record["metrics"], dict)
        assert record["metrics"]["counters"]["worker.executed"] == 1

    def test_a_loop_without_census_is_only_registered(self, tmp_path):
        # In-process workers skip the per-task records; the broker still
        # registers them on first contact.
        broker = DirectoryBroker(tmp_path)
        _seed(broker)
        loop = WorkerLoop(
            broker, worker_id="w-local", max_tasks=1, poll_interval=0.01, census=False
        )
        assert loop.run()["executed"] == 1
        (record,) = broker.workers()
        assert record["worker"] == "w-local"
        assert "executed" not in record and "metrics" not in record
