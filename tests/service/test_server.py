"""HTTP server + client: end-to-end jobs, streaming, byte-identity, restart."""

import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignGrid, run_campaign
from repro.errors import ServiceError
from repro.flow.topology import optimize_topology
from repro.service import BackgroundServer, ServiceClient, topology_payload
from repro.service.server import MAX_BODY_BYTES, RequestHead, parse_head
from repro.specs.adc import AdcSpec


CAMPAIGN = {"kind": "campaign", "grid": {"resolutions": [10, 11, 12]}}


def _raw_exchange(server, request: bytes) -> str:
    """Send ``request`` on a fresh connection; the whole response, decoded."""
    with socket.create_connection(
        (server.service.host, server.service.port), timeout=30
    ) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks).decode("latin-1")


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(store_dir=tmp_path / "svc") as background:
        yield background


@pytest.fixture
def client(server):
    return ServiceClient(server.base_url)


class TestJobLifecycle:
    def test_campaign_job_completes_and_streams_scenarios(self, client):
        # Park a slow job on the single worker first so the campaign is
        # still queued when the watch stream opens — otherwise a fast
        # analytic campaign can finish before the subscription lands and
        # the scenario events would legitimately never be seen.
        blocker = {
            "kind": "optimize",
            "spec": {"resolution_bits": 10},
            "mode": "synthesis",
            "config": {"budget": 150, "verify_transient": False},
        }
        client.submit(blocker)
        response = client.submit(CAMPAIGN)
        assert response["coalesced"] is False
        job_id = response["job"]["id"]
        labels = []
        for event in client.watch(job_id):
            if event["event"] == "scenario":
                labels.append(event["label"])
            if event.get("state") in ("done", "failed"):
                break
        final = client.job(job_id)
        assert final["state"] == "done"
        assert final["completed_scenarios"] == final["total_scenarios"] == 3
        # Scenario events arrive in expansion order.
        assert labels == [
            "k10_40M_analytic",
            "k11_40M_analytic",
            "k12_40M_analytic",
        ]

    def test_campaign_artifacts_byte_identical_to_direct_run(
        self, client, tmp_path
    ):
        job_id = client.submit(CAMPAIGN)["job"]["id"]
        client.wait(job_id, timeout=120)
        direct = tmp_path / "direct"
        run_campaign(CampaignGrid(resolutions=(10, 11, 12)), store_dir=direct)
        for name in ("results.jsonl", "report.txt", "manifest.json"):
            assert client.artifact(job_id, name) == (
                direct / name
            ).read_bytes(), name

    def test_optimize_job_matches_direct_payload(self, client):
        body = {"kind": "optimize", "spec": {"resolution_bits": 11}}
        job_id = client.submit(body)["job"]["id"]
        client.wait(job_id, timeout=120)
        direct = topology_payload(optimize_topology(AdcSpec(resolution_bits=11)))
        assert client.artifact(job_id, "result.json") == direct
        assert client.result(job_id)["winner"] == json.loads(direct)["winner"]

    def test_download_fetches_every_artifact(self, client, tmp_path):
        job_id = client.submit(CAMPAIGN)["job"]["id"]
        client.wait(job_id, timeout=120)
        paths = client.download(job_id, tmp_path / "fetched")
        assert {"results.jsonl", "report.txt", "manifest.json"} <= set(paths)
        for path in paths.values():
            assert path.is_file() and path.stat().st_size > 0

    def test_jobs_listing_and_health(self, client):
        job_id = client.submit(CAMPAIGN)["job"]["id"]
        client.wait(job_id, timeout=120)
        listed = client.jobs()
        assert [job["id"] for job in listed] == [job_id]
        health = client.health()
        assert health["status"] == "ok" and health["jobs"] == 1


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_execution(self, client):
        responses = []

        def submit():
            response = client.submit({**CAMPAIGN, "client": "racer"})
            client.wait(response["job"]["id"], timeout=120)
            responses.append(response)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        ids = {response["job"]["id"] for response in responses}
        assert len(ids) == 1  # one job, four satisfied clients
        stats = client.stats()
        assert stats["submissions"] == 4
        assert stats["executions"] == 1
        assert stats["coalesced"] == 3
        # Every client reads the same bytes.
        (job_id,) = ids
        payloads = {client.artifact(job_id, "results.jsonl") for _ in range(4)}
        assert len(payloads) == 1

    def test_resubmitting_a_done_job_serves_the_store(self, client):
        first = client.submit(CAMPAIGN)
        client.wait(first["job"]["id"], timeout=120)
        again = client.submit(CAMPAIGN)
        assert again["coalesced"] is True
        assert again["job"]["state"] == "done"
        assert client.stats()["executions"] == 1


class TestRestart:
    def test_restart_resumes_queue_without_recomputing_done_jobs(self, tmp_path):
        store = tmp_path / "svc"
        with BackgroundServer(store_dir=store) as first:
            client = ServiceClient(first.base_url)
            job_id = client.submit(CAMPAIGN)["job"]["id"]
            client.wait(job_id, timeout=120)
            served = client.artifact(job_id, "results.jsonl")

        with BackgroundServer(store_dir=store) as second:
            client = ServiceClient(second.base_url)
            (job,) = client.jobs()
            assert job["id"] == job_id and job["state"] == "done"
            # Identical resubmission coalesces onto the stored result: no
            # execution in the new server's lifetime.
            response = client.submit(CAMPAIGN)
            assert response["coalesced"] is True
            assert response["job"]["state"] == "done"
            assert client.stats()["executions"] == 0
            assert client.artifact(job_id, "results.jsonl") == served


class TestErrors:
    def test_malformed_json_is_a_single_line_error(self, server):
        import http.client

        connection = http.client.HTTPConnection(
            server.service.host, server.service.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                "/jobs",
                body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_wrongly_typed_field_is_a_400_not_a_500(self, server):
        import http.client

        connection = http.client.HTTPConnection(
            server.service.host, server.service.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                "/v1/jobs",
                body=json.dumps({**CAMPAIGN, "config": "x"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            error = json.loads(response.read())["error"]
            assert response.status == 400
            assert error == "config must be an object, not a string"
        finally:
            connection.close()

    def test_bad_request_fields_surface_as_service_errors(self, client):
        with pytest.raises(ServiceError, match="process, queue, serial"):
            client.submit({**CAMPAIGN, "config": {"backend": "gpu"}})
        with pytest.raises(ServiceError, match="resolutions"):
            client.submit({"kind": "campaign", "grid": {}})

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.job("feedc0ffee00")
        with pytest.raises(ServiceError, match="unknown job"):
            list(client.watch("feedc0ffee00"))

    def test_result_of_unfinished_job_conflicts(self, client):
        # A queued job has no result yet: hold the single worker busy with
        # a synthesis job, then ask for the queued job's result.
        slow = {
            "kind": "optimize",
            "spec": {"resolution_bits": 12},
            "mode": "synthesis",
            "config": {"budget": 300, "verify_transient": False},
        }
        client.submit(slow)
        queued = client.submit(CAMPAIGN)["job"]
        try:
            with pytest.raises(ServiceError, match="not done"):
                client.result(queued["id"])
        finally:
            client.wait(queued["id"], timeout=300)

    def test_unknown_artifact_names_available_ones(self, client):
        job_id = client.submit(CAMPAIGN)["job"]["id"]
        client.wait(job_id, timeout=120)
        with pytest.raises(ServiceError, match="available"):
            client.artifact(job_id, "secrets.txt")
        # Traversal-shaped names fall off the route table entirely.
        with pytest.raises(ServiceError, match="no route"):
            client.artifact(job_id, "../../etc/passwd")

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError, match="no route"):
            client._request("GET", "/nonsense")

    def test_negative_content_length_is_400(self, server):
        response = _raw_exchange(
            server,
            b"POST /jobs HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: -1\r\n"
            b"\r\n",
        )
        assert "400" in response.split("\r\n", 1)[0]
        assert "Content-Length" in response

    @pytest.mark.parametrize(
        "framing, body, status, reason",
        [
            (b"Content-Length: +5\r\n", b"12345", 400, "Content-Length"),
            (b"Content-Length: 1_0\r\n", b"0123456789", 400, "Content-Length"),
            (b"Content-Length: -0\r\n", b"", 400, "Content-Length"),
            (
                b"Content-Length: 5\r\nContent-Length: 6\r\n",
                b"123456",
                400,
                "conflicting Content-Length",
            ),
            (b"Transfer-Encoding: chunked\r\n", b"0\r\n\r\n", 501, "Transfer-Encoding"),
            (
                b"Content-Length: 2\r\nContent-Length: 2\r\n",
                b"{}",
                200,
                '"status": "ok"',
            ),
        ],
        ids=["plus-sign", "underscore", "minus-zero", "differing", "chunked", "agreeing"],
    )
    def test_body_framing_follows_rfc_9112(self, server, framing, body, status, reason):
        # Each body has the length a lenient int() parse would read, so only
        # a parser that refuses the framing itself answers an error.
        response = _raw_exchange(
            server, b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n" + framing + b"\r\n" + body
        )
        assert response.split("\r\n", 1)[0].split(" ")[1] == str(status)
        assert reason in response

    def test_wait_timeout_does_not_overshoot_on_a_quiet_stream(self, client):
        import time as _time

        # Park the worker on a slow synthesis job; the queued campaign's
        # event stream then stays quiet, and wait() must still honour its
        # deadline instead of blocking until the next event.
        slow = {
            "kind": "optimize",
            "spec": {"resolution_bits": 12},
            "mode": "synthesis",
            "config": {"budget": 300, "verify_transient": False},
        }
        client.submit(slow)
        queued = client.submit(CAMPAIGN)["job"]
        start = _time.monotonic()
        with pytest.raises(ServiceError, match="timed out|cannot reach"):
            client.wait(queued["id"], timeout=0.5)
        assert _time.monotonic() - start < 10.0
        client.wait(queued["id"], timeout=300)  # let the fixture drain fast

    def test_unreachable_service_is_a_service_error(self):
        dead = ServiceClient("http://127.0.0.1:1", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            dead.health()


#: Header values: valid lengths, near misses a lenient parse accepts, and noise.
_HEADER_VALUES = st.one_of(
    st.from_regex(r"[0-9]{1,6}", fullmatch=True),
    st.sampled_from(["+5", "-0", "1_0", "0x10", "5,5", "5 5", "", "1e3", "\xb2", "\xa05"]),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF), max_size=6),
)
_HEADER_NAMES = st.sampled_from(
    ["Content-Length", "content-length", "CONTENT-LENGTH", "Transfer-Encoding", "Host"]
)
_OWS = st.sampled_from(["", " ", "\t", " \t"])


class TestParseHead:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_HEADER_NAMES, _OWS, _HEADER_VALUES, _OWS), max_size=4))
    def test_a_length_exactly_when_every_content_length_is_digits_and_agrees(
        self, headers
    ):
        head = "POST /v1/jobs HTTP/1.1\r\n" + "".join(
            f"{name}:{before}{value}{after}\r\n" for name, before, value, after in headers
        )
        parsed = parse_head((head + "\r\n").encode("latin-1"))
        lengths = [
            value.strip(" \t")
            for name, _, value, _ in headers
            if name.lower() == "content-length"
        ]
        transfer_coded = any(name.lower() == "transfer-encoding" for name, *_ in headers)
        digits_only = all(value and set(value) <= set("0123456789") for value in lengths)
        if not transfer_coded and digits_only and len(set(lengths)) <= 1:
            expected = int(lengths[0]) if lengths else 0
            assert parsed == RequestHead("POST", "/v1/jobs", expected)
        else:
            assert not isinstance(parsed, RequestHead)
            assert parsed.status == (501 if transfer_coded else 400)

    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=200))
    def test_any_head_parses_or_is_refused(self, noise):
        parsed = parse_head(noise + b"\r\n\r\n")
        assert isinstance(parsed, RequestHead) or parsed.status in (400, 413, 501)

    def test_lengths_past_the_limit_are_413_however_many_digits(self):
        def head(length: str) -> bytes:
            return f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()

        assert parse_head(head(str(MAX_BODY_BYTES))).length == MAX_BODY_BYTES
        assert parse_head(head("0" * 5000 + "7")).length == 7
        assert parse_head(head(str(MAX_BODY_BYTES + 1))).status == 413
        assert parse_head(head("9" * 5000)).status == 413


class TestCancel:
    def test_cancel_dequeues_a_queued_job(self, client):
        slow = {
            "kind": "optimize",
            "spec": {"resolution_bits": 12},
            "mode": "synthesis",
            "config": {"budget": 300, "verify_transient": False},
        }
        running = client.submit(slow)["job"]
        queued = client.submit(CAMPAIGN)["job"]
        response = client.cancel(queued["id"])
        assert response["cancelled"] is True
        assert client.job(queued["id"])["state"] == "cancelled"
        final = client.wait(running["id"], timeout=300)
        assert final["state"] == "done"
