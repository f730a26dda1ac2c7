"""The distributed fabric end-to-end: HTTP broker, worker fleet, byte-identity."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import CampaignGrid, run_campaign
from repro.engine.broker import BrokerBackend, DirectoryBroker, HttpBroker
from repro.engine.config import FlowConfig
from repro.engine.persist import digest
from repro.engine.worker import WorkerLoop
from repro.engine.broker import task_key
from repro.errors import ServiceError
from repro.service import BackgroundServer, ServiceClient, wire

GRID = CampaignGrid(resolutions=(10, 11))

_REPO_SRC = str(Path(repro.__file__).resolve().parents[1])


def _spawn_worker(base_url: str, *extra: str) -> subprocess.Popen:
    """One `repro-adc worker` subprocess attached to `base_url`."""
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--broker",
            base_url,
            "--poll",
            "0.02",
            *extra,
        ],
        env={**os.environ, "PYTHONPATH": _REPO_SRC},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _stop_worker(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(store_dir=tmp_path / "svc", lease_ttl=2.0) as background:
        yield background


@pytest.fixture
def broker(server):
    return HttpBroker(server.base_url)


class TestHttpBrokerProtocol:
    def test_full_task_lifecycle_over_http(self, broker):
        key = task_key(digest, {"n": 1})
        assert broker.submit(key, wire.encode_task(digest, {"n": 1})) is True
        assert broker.submit(key, wire.encode_task(digest, {"n": 1})) is False
        leased = broker.lease("w1")
        assert leased is not None
        got_key, envelope = leased
        assert got_key == key
        assert broker.lease("w2") is None  # exclusive
        assert broker.heartbeat(key, "w1") is True
        fn_name, task = wire.decode_task(envelope)
        assert fn_name == "repro.engine.persist.digest"
        broker.ack(key, wire.encode_result(digest(task)), "w1")
        assert wire.decode_result(broker.result(key)) == digest({"n": 1})
        stats = broker.stats()
        assert stats["acks"] == 1 and stats["pending"] == 0

    def test_nack_failure_and_discard_over_http(self, broker):
        key = task_key(digest, {"n": 2})
        broker.submit(key, wire.encode_task(digest, {"n": 2}))
        broker.lease("w1")
        assert broker.nack(key, "w1", "boom") == 1
        assert broker.failure(key) == {"retries": 1, "error": "boom"}
        assert broker.result(key) is None
        broker.lease("w1")
        broker.ack(key, b"payload", "w1")
        broker.discard(key)
        assert broker.result(key) is None

    def test_statuses_batch_over_http(self, broker):
        keys = [task_key(digest, {"n": n}) for n in (20, 21, 22)]
        for key, n in zip(keys, (20, 21, 22)):
            broker.submit(key, wire.encode_task(digest, {"n": n}))
        acked_key = broker.lease("w1")[0]  # first two in lease order
        running_key = broker.lease("w1")[0]
        idle_key = next(k for k in keys if k not in (acked_key, running_key))
        broker.ack(acked_key, wire.encode_result(0), "w1")
        statuses = broker.statuses(keys)
        assert statuses[acked_key]["acked"] is True
        assert statuses[running_key]["leased"] is True
        assert statuses[running_key]["acked"] is False
        assert statuses[idle_key] == {
            "acked": False,
            "leased": False,
            "failure": None,
        }

    def test_heartbeat_extends_a_lease_past_its_ttl(self, broker):
        # Server TTL is 2s: beat for 3s, the lease must survive; stop, and
        # one TTL later the reclaim sweep breaks it.
        key = task_key(digest, {"n": 3})
        broker.submit(key, wire.encode_task(digest, {"n": 3}))
        assert broker.lease("w1") is not None
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            assert broker.heartbeat(key, "w1") is True
            assert broker.reclaim() == 0
            time.sleep(0.2)
        time.sleep(2.5)
        assert broker.reclaim() == 1
        leased = broker.lease("w2")
        assert leased is not None and leased[0] == key

    def test_sigkilled_worker_lease_is_reclaimed_by_ttl(self, broker, server):
        # Over HTTP the lease records the *server's* pid (alive), so a
        # SIGKILLed remote worker is reclaimed purely by TTL expiry.
        key = task_key(digest, {"n": 4})
        broker.submit(key, wire.encode_task(digest, {"n": 4}))
        victim = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import time\n"
                "from repro.engine.broker import HttpBroker\n"
                f"b = HttpBroker({server.base_url!r})\n"
                "assert b.lease('victim') is not None\n"
                "print('leased', flush=True)\n"
                "time.sleep(600)\n",
            ],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": _REPO_SRC},
        )
        try:
            assert victim.stdout.readline().strip() == b"leased"
            assert broker.lease("survivor") is None
            victim.kill()
            victim.wait()
            # No heartbeats arrive anymore: after the 2s TTL the task is
            # re-leasable by a survivor.
            deadline = time.monotonic() + 10.0
            leased = None
            while leased is None and time.monotonic() < deadline:
                leased = broker.lease("survivor")
                if leased is None:
                    time.sleep(0.2)
            assert leased is not None and leased[0] == key
            assert broker.stats()["reclaimed"] >= 1
        finally:
            victim.kill()
            victim.wait()

    def test_unreachable_broker_raises_service_error(self):
        with pytest.raises(ServiceError, match="cannot reach"):
            HttpBroker("http://127.0.0.1:1").stats()


class TestBrokerBackendOverHttp:
    def test_map_executes_on_an_http_worker_loop(self, server):
        backend = BrokerBackend(broker_url=server.base_url, poll_interval=0.02)
        worker = WorkerLoop(
            HttpBroker(server.base_url),
            worker_id="w1",
            poll_interval=0.02,
            idle_exit=3.0,
        )
        thread = threading.Thread(target=worker.run)
        thread.start()
        tasks = [{"n": i} for i in range(5)]
        try:
            results = backend.map(digest, tasks)
        finally:
            thread.join()
        assert results == [digest(t) for t in tasks]
        assert backend.dispatched == 5

    def test_server_side_broker_shares_state_with_http(self, server, tmp_path):
        # The in-server dispatch path (scheduler swapping queue_dir to the
        # service's broker directory) and the HTTP routes must see one
        # queue: publish via HTTP, observe via the directory, and back.
        http = HttpBroker(server.base_url)
        direct = DirectoryBroker(server.service.broker.root)
        key = task_key(digest, {"n": 9})
        http.submit(key, wire.encode_task(digest, {"n": 9}))
        assert direct.stats()["pending"] == 1
        leased = direct.lease("local")
        assert leased is not None
        direct.ack(key, wire.encode_result("done"), "local")
        assert wire.decode_result(http.result(key)) == "done"


class TestFleetByteIdentity:
    def test_two_workers_match_the_serial_reference(self, server, tmp_path):
        """The acceptance gate: a 2-worker fleet campaign is byte-identical
        to the serial run."""
        serial = tmp_path / "serial"
        run_campaign(GRID, config=FlowConfig(), store_dir=serial)

        fleet = tmp_path / "fleet"
        workers = [_spawn_worker(server.base_url) for _ in range(2)]
        try:
            run_campaign(
                GRID,
                config=FlowConfig(
                    backend="broker", broker_url=server.base_url
                ),
                store_dir=fleet,
            )
        finally:
            for proc in workers:
                _stop_worker(proc)
        for name in ("results.jsonl", "report.txt"):
            assert (fleet / name).read_bytes() == (serial / name).read_bytes()
        # The fleet really did the work remotely: tasks flowed through the
        # server's broker.
        stats = HttpBroker(server.base_url).stats()
        assert stats["acked"] > 0

    def test_submitted_broker_job_matches_a_serial_job(self, server, tmp_path):
        """`repro-adc submit --backend broker` + attached workers produce
        the same artifacts as a serial-backend submission."""
        client = ServiceClient(server.base_url)
        request = {
            "kind": "campaign",
            "grid": {"resolutions": [10, 11]},
            "config": {"backend": "broker"},
        }
        workers = [_spawn_worker(server.base_url) for _ in range(2)]
        try:
            job_id = client.submit(request)["job"]["id"]
            state = client.wait(job_id, timeout=180)["state"]
        finally:
            for proc in workers:
                _stop_worker(proc)
        assert state == "done"
        serial_id = client.submit(
            {"kind": "campaign", "grid": {"resolutions": [10, 11]}}
        )["job"]["id"]
        assert client.wait(serial_id, timeout=180)["state"] == "done"
        broker_results = client.artifact(job_id, "results.jsonl")
        serial_results = client.artifact(serial_id, "results.jsonl")
        assert broker_results == serial_results

    def test_broker_job_without_a_broker_dir_is_refused(self, tmp_path):
        # A scheduler wired without a broker directory must reject broker
        # jobs up front with a spec error, not hang waiting for workers.
        from repro.engine.cancel import CancelToken
        from repro.errors import SpecificationError
        from repro.service.jobs import JobStore
        from repro.service.scheduler import JobScheduler

        scheduler = JobScheduler(JobStore(tmp_path / "jobs"), broker_dir=None)
        record, coalesced = scheduler.submit(
            {
                "kind": "campaign",
                "grid": {"resolutions": [10]},
                "config": {"backend": "broker"},
            }
        )
        assert coalesced is False
        with pytest.raises(SpecificationError, match="no task broker"):
            scheduler._execute(record, CancelToken())
