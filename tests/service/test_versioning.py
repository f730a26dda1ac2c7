"""The versioned HTTP surface: every route under /v1/, any other path a 404."""

import json
from http.client import HTTPConnection
from urllib.parse import urlsplit

import pytest

from repro.service import BackgroundServer, ServiceClient


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("versioning") / "svc"
    with BackgroundServer(store_dir=store) as background:
        yield background


def _raw(server, method: str, path: str, body: dict | None = None):
    """One raw request; returns (status, headers-dict, body-bytes)."""
    split = urlsplit(server.base_url)
    connection = HTTPConnection(split.hostname, split.port, timeout=10)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        connection.request(
            method,
            path,
            body=payload,
            headers={"Content-Type": "application/json"} if payload else {},
        )
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestVersionedRoutes:
    def test_v1_routes_answer_without_deprecation(self, server):
        status, headers, body = _raw(server, "GET", "/v1/healthz")
        assert status == 200
        assert "Deprecation" not in headers
        assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize(
        "method,path",
        [
            ("GET", "/healthz"),
            ("GET", "/stats"),
            ("GET", "/jobs"),
            ("GET", "/jobs/nonexistent"),
            ("POST", "/drain"),
        ],
    )
    def test_unversioned_paths_are_not_routes(self, server, method, path):
        status, headers, body = _raw(server, method, path)
        assert status == 404
        assert "/v1" in json.loads(body)["error"]
        assert "Deprecation" not in headers

    def test_unversioned_drain_drains_nothing(self, server):
        assert _raw(server, "POST", "/drain")[0] == 404
        assert json.loads(_raw(server, "GET", "/v1/healthz")[2])["status"] == "ok"

    def test_v1_errors_carry_no_deprecation(self, server):
        status, headers, body = _raw(server, "GET", "/v1/jobs/nonexistent")
        assert status == 404
        assert "Deprecation" not in headers
        assert "unknown job" in json.loads(body)["error"]

    def test_unknown_version_prefix_is_not_a_route(self, server):
        status, _, body = _raw(server, "GET", "/v2/healthz")
        assert status == 404
        # Not a future version this server half-understands.
        assert "/v1" in json.loads(body)["error"]

    def test_submit_via_v1_roundtrip(self, server):
        status, headers, body = _raw(
            server,
            "POST",
            "/v1/jobs",
            {"kind": "campaign", "grid": {"resolutions": [10]}},
        )
        assert status == 200
        assert "Deprecation" not in headers
        job_id = json.loads(body)["job"]["id"]
        client = ServiceClient(server.base_url)
        assert client.wait(job_id)["state"] == "done"


class TestBrokerRoutesAreV1Only:
    def test_unversioned_broker_routes_404(self, server):
        status, _, body = _raw(server, "GET", "/broker/stats")
        assert status == 404
        assert "/v1" in json.loads(body)["error"]
        status, _, _ = _raw(server, "POST", "/broker/lease", {"worker": "w"})
        assert status == 404

    def test_v1_broker_stats_serves(self, server):
        status, headers, body = _raw(server, "GET", "/v1/broker/stats")
        assert status == 200
        assert "Deprecation" not in headers
        stats = json.loads(body)
        assert stats["pending"] == 0 and stats["leases"] == 0

    def test_malformed_task_keys_are_rejected(self, server):
        status, _, body = _raw(
            server, "GET", "/v1/broker/results/../../../etc/passwd"
        )
        assert status in (400, 404)
        status, _, body = _raw(
            server,
            "POST",
            "/v1/broker/tasks",
            {"key": "../escape", "envelope": {}},
        )
        assert status == 400
        assert "malformed task key" in json.loads(body)["error"]


class TestClientSpeaksV1:
    def test_client_requests_carry_the_version_prefix(self, server):
        # The stdlib client's paths are hard-coded; assert at the source
        # level so a stray unversioned path cannot sneak back in.
        import inspect

        import repro.service.client as client_module

        source = inspect.getsource(client_module)
        for route in ("/jobs", "/stats", "/healthz", "/drain"):
            assert f'"{route}' not in source.replace(f'"/v1{route}', ""), route

    def test_client_works_end_to_end(self, server):
        client = ServiceClient(server.base_url)
        assert client.health()["status"] == "ok"


class TestObservabilityRoutes:
    def test_v1_metrics_serves_the_registry(self, server):
        from repro.obs import metrics

        metrics.counter("test.versioning.ping", 3)
        status, headers, body = _raw(server, "GET", "/v1/metrics")
        assert status == 200
        assert "Deprecation" not in headers
        payload = json.loads(body)
        assert payload["telemetry"] in ("off", "metrics", "trace")
        assert payload["metrics"]["counters"]["test.versioning.ping"] == 3

    def test_unversioned_metrics_is_not_a_route(self, server):
        status, _, body = _raw(server, "GET", "/metrics")
        assert status == 404
        assert "/v1" in json.loads(body)["error"]

    def test_worker_census_roundtrip(self, server):
        status, _, body = _raw(
            server,
            "POST",
            "/v1/broker/workers",
            {"record": {"worker": "w-http", "executed": 2}},
        )
        assert status == 200 and json.loads(body) == {"ok": True}
        status, _, body = _raw(server, "GET", "/v1/broker/workers")
        assert status == 200
        records = {r["worker"]: r for r in json.loads(body)["workers"]}
        assert records["w-http"]["executed"] == 2
        # The census also rides the stats payload the CLI status view reads.
        _, _, body = _raw(server, "GET", "/v1/broker/stats")
        assert "w-http" in {r["worker"] for r in json.loads(body)["workers"]}

    def test_http_broker_client_speaks_the_census_routes(self, server):
        from repro.engine.broker import HttpBroker

        broker = HttpBroker(server.base_url)
        broker.register_worker({"worker": "w-client", "busy_seconds": 1.5})
        records = {r["worker"]: r for r in broker.workers()}
        assert records["w-client"]["busy_seconds"] == 1.5

    def test_census_registration_validation(self, server):
        status, _, body = _raw(server, "POST", "/v1/broker/workers", {})
        assert status == 400
        assert "record" in json.loads(body)["error"]
        status, _, body = _raw(
            server, "POST", "/v1/broker/workers", {"record": {"worker": "  "}}
        )
        assert status == 400
        assert "worker" in json.loads(body)["error"]
