"""The asyncio HTTP front end of the optimization service.

Stdlib-only: a hand-rolled HTTP/1.1 layer over ``asyncio.start_server``
(one request per connection, ``Connection: close``), which is exactly
enough for a JSON control API plus **streaming** job-event responses —
``GET /v1/jobs/<id>/events`` holds the connection open and writes one JSON
line per event until the job reaches a terminal state, so clients follow a
campaign scenario-by-scenario without polling.

The API is versioned: every route lives under ``/v1/``.  The original
unversioned paths still answer (identical payloads) but carry a
``Deprecation: true`` response header; new clients must speak ``/v1/``.
The broker routes are ``/v1``-only — they postdate the versioning, so no
deprecated alias exists.

Routes (see ``docs/service.md`` for payloads):

=======  =================================  ========================================
POST     ``/v1/jobs``                       submit (returns the job + coalesced flag)
GET      ``/v1/jobs``                       list all jobs
GET      ``/v1/jobs/<id>``                  one job's state
GET      ``/v1/jobs/<id>/events``           NDJSON event stream until terminal
GET      ``/v1/jobs/<id>/result``           canonical result summary (done jobs)
GET      ``/v1/jobs/<id>/artifacts``        servable artifact names
GET      ``/v1/jobs/<id>/artifacts/<name>`` raw artifact bytes (byte-identical
                                            to a direct ``run_campaign`` store)
POST     ``/v1/jobs/<id>/cancel``           cancel a queued job
POST     ``/v1/drain``                      graceful drain (SIGTERM equivalent)
GET      ``/v1/healthz``, ``/v1/stats``     liveness / queue + coalescing counters
GET      ``/v1/metrics``                    this process's metrics-registry snapshot
POST     ``/v1/broker/tasks``               publish a task envelope
POST     ``/v1/broker/lease``               claim one pending task (worker pull)
POST     ``/v1/broker/ack``                 store a completed task's result
POST     ``/v1/broker/nack``                record a failed execution
POST     ``/v1/broker/heartbeat``           extend a worker's lease
POST     ``/v1/broker/status``              batched ack/lease/failure poll
POST     ``/v1/broker/discard``             drop a stored ack
POST     ``/v1/broker/reclaim``             break stale leases now
GET      ``/v1/broker/results/<key>``       ack payload bytes (404 until acked)
GET      ``/v1/broker/tasks/<key>``         one task's completion/failure state
GET      ``/v1/broker/stats``               broker counters + queue + fleet census
GET      ``/v1/broker/workers``             live worker census records
POST     ``/v1/broker/workers``             register / refresh one worker record
=======  =================================  ========================================

``OptimizationService`` wires the scheduler to the socket and owns the
graceful-shutdown path: SIGTERM (or ``POST /v1/drain``) cancels running
campaigns at their next scenario boundary, requeues them, persists the
queue and exits — a subsequent start resumes it.  ``BackgroundServer``
runs the whole service on a daemon thread with its own event loop, for
tests, benchmarks and notebook use.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import traceback
from pathlib import Path
from typing import Any, NamedTuple

from repro.engine.broker import DEFAULT_LEASE_TTL, DirectoryBroker, check_key
from repro.errors import ServiceError, SpecificationError
from repro.service.jobs import JobStore
from repro.service.scheduler import TERMINAL_STATES, JobScheduler

#: Largest accepted request body [bytes].
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Version segment of the current HTTP surface.
API_VERSION = "v1"

#: Subdirectory of the service store holding the task broker's files.
BROKER_DIRNAME = "broker"

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


def _response_head(
    status: int,
    content_type: str,
    length: int | None,
    deprecated: bool = False,
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
        "Cache-Control: no-store",
    ]
    if deprecated:
        # RFC 9745 deprecation signal: the unversioned alias still works,
        # but clients should move to the /v1/ path.
        lines.append("Deprecation: true")
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


class _HttpError(Exception):
    """Internal: routed straight to an error response."""

    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


class RequestHead(NamedTuple):
    """A request head whose body this server can read."""

    method: str
    path: str
    #: Body length in bytes: the ``Content-Length`` value, 0 without one.
    length: int


def parse_head(head: bytes) -> RequestHead | _HttpError:
    """Parse a request head, through its blank line; never raises.

    Returns the method, the path and the body's length, or the error that
    refuses the request.  The body's framing follows RFC 9112 §6.3, where
    a framing error is unrecoverable: any ``Transfer-Encoding`` is 501
    (this server decodes no transfer coding), a ``Content-Length`` that is
    not ``1*DIGIT`` or that differs from another ``Content-Length`` is
    400, and a length above :data:`MAX_BODY_BYTES` is 413.
    """
    request_line, _, header_block = head.decode("latin-1").partition("\r\n")
    try:
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        return _HttpError(400, "malformed request line")
    lengths = []
    transfer_coded = False
    for line in header_block.split("\r\n"):
        name, sep, value = line.partition(":")
        name = name.strip().lower()
        if sep and name == "transfer-encoding":
            transfer_coded = True
        elif sep and name == "content-length":
            lengths.append(value.strip(" \t"))
    if transfer_coded:
        return _HttpError(501, "Transfer-Encoding is not supported: send a Content-Length")
    # 1*DIGIT: no sign, separator or non-ASCII digit such as "²".
    if not all(value.isascii() and value.isdigit() for value in lengths):
        return _HttpError(400, "bad Content-Length: digits only")
    if len(set(lengths)) > 1:
        return _HttpError(400, "conflicting Content-Length headers")
    # int() refuses more than 4,300 digits: count them first.
    digits = (lengths[0].lstrip("0") or "0") if lengths else "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        return _HttpError(413, "request body too large")
    return RequestHead(method, path, int(digits))


class OptimizationService:
    """One serving process: a JobScheduler behind an asyncio HTTP API."""

    def __init__(
        self,
        store_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        job_workers: int = 1,
        cache_dir: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ):
        self.store = JobStore(store_dir)
        #: The server's task broker: one directory inside the store, shared
        #: by the ``/v1/broker/*`` routes (remote workers) and by
        #: ``backend: broker`` jobs (the scheduler publishes there).
        self.broker = DirectoryBroker(
            self.store.root / BROKER_DIRNAME, lease_ttl=lease_ttl
        )
        self.scheduler = JobScheduler(
            self.store,
            job_workers=job_workers,
            cache_dir=cache_dir,
            broker_dir=str(self.broker.root),
        )
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._stop_requested = asyncio.Event()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Recover the queue, start the workers, bind the socket."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: drain the scheduler, then close the socket."""
        await self.scheduler.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    def request_stop(self) -> None:
        """Signal-handler / drain-route hook: initiate shutdown."""
        self._stop_requested.set()

    async def run(
        self,
        on_ready: Any = None,
        on_drain: Any = None,
    ) -> None:
        """Serve until SIGTERM/SIGINT (or ``POST /drain``), then drain.

        ``on_ready`` / ``on_drain`` are optional zero-argument callables
        (the CLI prints status lines through them) invoked after the
        socket binds and when shutdown begins.
        """
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        if on_ready is not None:
            on_ready()
        await self._stop_requested.wait()
        if on_drain is not None:
            on_drain()
        await self.stop()

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=30.0
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
            ):
                return
            parsed = parse_head(head)
            if isinstance(parsed, _HttpError):
                await self._send_error(writer, parsed.status, parsed.message)
                return
            method, path, length = parsed
            try:
                body = (
                    await asyncio.wait_for(reader.readexactly(length), timeout=30.0)
                    if length
                    else b""
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                return  # client stalled or hung up mid-body
            parts = [p for p in path.split("?", 1)[0].split("/") if p]
            deprecated = parts[:1] != [API_VERSION]
            if not deprecated:
                parts = parts[1:]
            try:
                await self._route(method, parts, path, body, writer, deprecated)
            except _HttpError as exc:
                await self._send_error(writer, exc.status, exc.message, deprecated)
            except (SpecificationError, ServiceError) as exc:
                await self._send_error(writer, 400, str(exc), deprecated)
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # never kill the accept loop
                await self._send_error(
                    writer, 500, f"{type(exc).__name__}: {exc}", deprecated
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        payload: Any,
        status: int = 200,
        deprecated: bool = False,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        writer.write(
            _response_head(status, "application/json", len(body), deprecated) + body
        )
        await writer.drain()

    async def _send_bytes(
        self,
        writer: asyncio.StreamWriter,
        payload: bytes,
        content_type: str,
        deprecated: bool = False,
    ) -> None:
        writer.write(
            _response_head(200, content_type, len(payload), deprecated) + payload
        )
        await writer.drain()

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        message: str,
        deprecated: bool = False,
    ) -> None:
        try:
            await self._send_json(
                writer, {"error": message}, status=status, deprecated=deprecated
            )
        except (ConnectionError, OSError):
            pass

    # -- routing -------------------------------------------------------------

    def _record(self, job_id: str):
        record = self.scheduler.find(job_id)
        if record is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return record

    async def _route(
        self,
        method: str,
        parts: list[str],
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
        deprecated: bool,
    ) -> None:
        if method == "GET" and parts == ["healthz"]:
            stats = self.scheduler.stats()
            await self._send_json(
                writer,
                {
                    "status": "draining" if stats["draining"] else "ok",
                    "queued": stats["queued"],
                    "running": stats["running"],
                    "jobs": stats["jobs"],
                },
                deprecated=deprecated,
            )
            return
        if method == "GET" and parts == ["stats"]:
            await self._send_json(writer, self.scheduler.stats(), deprecated=deprecated)
            return
        if method == "GET" and parts == ["metrics"]:
            if deprecated:
                # Postdates versioning, like the broker surface: /v1 only.
                raise _HttpError(404, f"no route for {method} {path} (use /v1)")
            from repro.obs import metrics as obs

            await self._send_json(
                writer,
                {"telemetry": obs.telemetry_mode(), "metrics": obs.snapshot()},
            )
            return
        if method == "POST" and parts == ["drain"]:
            self.request_stop()
            await self._send_json(writer, {"status": "draining"}, deprecated=deprecated)
            return
        if parts and parts[0] == "broker":
            if deprecated:
                # The broker surface postdates versioning: /v1 only, no alias.
                raise _HttpError(404, f"no route for {method} {path} (use /v1)")
            await self._route_broker(method, parts[1:], path, body, writer)
            return
        if parts and parts[0] == "jobs":
            if method == "POST" and len(parts) == 1:
                if self.scheduler.draining:
                    # 503, not 400: the request may be perfectly valid —
                    # retry-after-restart is the right client policy.
                    raise _HttpError(
                        503, "service is draining; resubmit after restart"
                    )
                payload = self._parse_body(body)
                record, coalesced = self.scheduler.submit(payload)
                await self._send_json(
                    writer,
                    {"job": record.summary(), "coalesced": coalesced},
                    deprecated=deprecated,
                )
                return
            if method == "GET" and len(parts) == 1:
                records = sorted(self.scheduler.jobs.values(), key=lambda r: r.seq)
                await self._send_json(
                    writer,
                    {"jobs": [r.summary() for r in records]},
                    deprecated=deprecated,
                )
                return
            if len(parts) >= 2:
                record = self._record(parts[1])
                if method == "GET" and len(parts) == 2:
                    await self._send_json(
                        writer, {"job": record.summary()}, deprecated=deprecated
                    )
                    return
                if method == "POST" and parts[2:] == ["cancel"]:
                    cancelled = self.scheduler.cancel(record.key)
                    await self._send_json(
                        writer,
                        {"job": record.summary(), "cancelled": cancelled},
                        deprecated=deprecated,
                    )
                    return
                if method == "GET" and parts[2:] == ["events"]:
                    await self._stream_events(record, writer, deprecated)
                    return
                if method == "GET" and parts[2:] == ["result"]:
                    payload = self.store.read_result(record.key)
                    if payload is None:
                        raise _HttpError(
                            409, f"job {record.job_id} is {record.state}, not done"
                        )
                    await self._send_bytes(
                        writer, payload, "application/json", deprecated
                    )
                    return
                if method == "GET" and parts[2:] == ["artifacts"]:
                    await self._send_json(
                        writer,
                        {"artifacts": sorted(self.store.artifacts(record.key))},
                        deprecated=deprecated,
                    )
                    return
                if method == "GET" and len(parts) == 4 and parts[2] == "artifacts":
                    artifacts = self.store.artifacts(record.key)
                    artifact = artifacts.get(parts[3])
                    if artifact is None:
                        raise _HttpError(
                            404,
                            f"no artifact {parts[3]!r} for job {record.job_id} "
                            f"(available: {', '.join(sorted(artifacts)) or 'none'})",
                        )
                    # Read off-loop: a multi-MB results.jsonl must not
                    # stall every other connection's event stream.
                    payload = await asyncio.get_running_loop().run_in_executor(
                        None, artifact.read_bytes
                    )
                    await self._send_bytes(
                        writer, payload, "application/octet-stream", deprecated
                    )
                    return
        raise _HttpError(404, f"no route for {method} {path}")

    # -- the broker surface ----------------------------------------------------

    @staticmethod
    def _broker_key(value: Any) -> str:
        try:
            return check_key(value)
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from exc

    async def _route_broker(
        self,
        method: str,
        parts: list[str],
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        """``/v1/broker/*``: the :class:`DirectoryBroker` over HTTP.

        Every broker call touches the filesystem, so each runs off-loop in
        the default executor — a slow disk must not stall event streams.
        """
        loop = asyncio.get_running_loop()

        async def offload(fn, *args):
            return await loop.run_in_executor(None, fn, *args)

        if method == "GET" and parts == ["stats"]:
            await self._send_json(writer, await offload(self.broker.stats))
            return
        if method == "GET" and parts == ["workers"]:
            await self._send_json(
                writer, {"workers": await offload(self.broker.workers)}
            )
            return
        if method == "GET" and len(parts) == 2 and parts[0] == "results":
            payload = await offload(self.broker.result, self._broker_key(parts[1]))
            if payload is None:
                raise _HttpError(404, f"no result for task {parts[1]}")
            await self._send_bytes(writer, payload, "application/octet-stream")
            return
        if method == "GET" and len(parts) == 2 and parts[0] == "tasks":
            key = self._broker_key(parts[1])
            acked = await offload(lambda: self.broker.result(key) is not None)
            failure = await offload(self.broker.failure, key)
            await self._send_json(writer, {"acked": acked, "failure": failure})
            return
        if method != "POST":
            raise _HttpError(404, f"no route for {method} {path}")
        payload = self._parse_body(body) if body else {}
        if not isinstance(payload, dict):
            raise _HttpError(400, "broker request body must be a JSON object")
        if parts == ["tasks"]:
            envelope = payload.get("envelope")
            if not isinstance(envelope, dict):
                raise _HttpError(400, "task submission needs an envelope object")
            submitted = await offload(
                self.broker.submit, self._broker_key(payload.get("key")), envelope
            )
            await self._send_json(writer, {"submitted": submitted})
            return
        if parts == ["lease"]:
            worker = str(payload.get("worker") or "anon")
            leased = await offload(self.broker.lease, worker)
            task = (
                None
                if leased is None
                else {"key": leased[0], "envelope": leased[1]}
            )
            await self._send_json(writer, {"task": task})
            return
        if parts == ["ack"]:
            from repro.service import wire

            key = self._broker_key(payload.get("key"))
            try:
                result = wire.decode_result_b64(str(payload.get("result_b64", "")))
            except ValueError as exc:
                raise _HttpError(400, str(exc)) from exc
            worker = payload.get("worker")
            await offload(self.broker.ack, key, result, worker)
            await self._send_json(writer, {"ok": True})
            return
        if parts == ["nack"]:
            key = self._broker_key(payload.get("key"))
            error = payload.get("error")
            retries = await offload(
                self.broker.nack,
                key,
                payload.get("worker"),
                None if error is None else str(error),
            )
            await self._send_json(writer, {"retries": retries})
            return
        if parts == ["heartbeat"]:
            key = self._broker_key(payload.get("key"))
            worker = str(payload.get("worker") or "anon")
            ok = await offload(self.broker.heartbeat, key, worker)
            await self._send_json(writer, {"ok": ok})
            return
        if parts == ["status"]:
            keys = payload.get("keys")
            if not isinstance(keys, list) or len(keys) > 1000:
                raise _HttpError(
                    400, "status poll needs a keys list (at most 1000 keys)"
                )
            checked = [self._broker_key(key) for key in keys]
            statuses = await offload(self.broker.statuses, checked)
            await self._send_json(writer, {"statuses": statuses})
            return
        if parts == ["discard"]:
            await offload(self.broker.discard, self._broker_key(payload.get("key")))
            await self._send_json(writer, {"ok": True})
            return
        if parts == ["reclaim"]:
            reclaimed = await offload(self.broker.reclaim)
            await self._send_json(writer, {"reclaimed": reclaimed})
            return
        if parts == ["workers"]:
            record = payload.get("record")
            if not isinstance(record, dict):
                raise _HttpError(400, "worker registration needs a record object")
            try:
                await offload(self.broker.register_worker, record)
            except ValueError as exc:
                raise _HttpError(400, str(exc)) from exc
            await self._send_json(writer, {"ok": True})
            return
        raise _HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _parse_body(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON ({exc})") from exc

    async def _stream_events(
        self, record, writer: asyncio.StreamWriter, deprecated: bool = False
    ) -> None:
        """NDJSON event stream: snapshot first, then live until terminal."""
        queue = self.scheduler.subscribe(record.key)
        try:
            writer.write(
                _response_head(200, "application/x-ndjson", None, deprecated)
            )
            await writer.drain()
            while True:
                event = await queue.get()
                writer.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                )
                await writer.drain()
                if event.get("state") in TERMINAL_STATES:
                    return
        finally:
            self.scheduler.unsubscribe(record.key, queue)


class BackgroundServer:
    """An :class:`OptimizationService` on a daemon thread (tests, benches).

    The thread runs its own event loop; :meth:`stop` requests a graceful
    drain and joins.  Usable as a context manager::

        with BackgroundServer(store_dir=tmp) as server:
            ServiceClient(server.base_url).submit(...)
    """

    def __init__(
        self,
        store_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        job_workers: int = 1,
        cache_dir: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        startup_timeout: float = 30.0,
    ):
        self.service = OptimizationService(
            store_dir,
            host=host,
            port=port,
            job_workers=job_workers,
            cache_dir=cache_dir,
            lease_ttl=lease_ttl,
        )
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(startup_timeout):
            raise ServiceError("optimization service failed to start in time")
        if self._startup_error is not None:
            raise ServiceError(
                f"optimization service failed to start: {self._startup_error}"
            )

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self.service.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.service._stop_requested.wait()
            await self.service.stop()

        try:
            asyncio.run(main())
        except BaseException:
            # A post-startup crash must not vanish silently: clients would
            # only ever see opaque "cannot reach service" timeouts.
            if self._ready.is_set():
                traceback.print_exc()
            else:
                self._ready.set()

    @property
    def base_url(self) -> str:
        return self.service.base_url

    def stop(self) -> None:
        """Drain gracefully and join the server thread."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout=60.0)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


__all__ = [
    "API_VERSION",
    "BROKER_DIRNAME",
    "BackgroundServer",
    "MAX_BODY_BYTES",
    "OptimizationService",
]
