"""The execution fabric: brokers, and the backend that uses them.

Every task the ``broker`` backend runs goes through one
content-addressed lease/ack protocol, defined here:

* **key** — each ``(fn, task)`` pair is content-addressed (:func:`task_key`):
  tasks that expose a ``queue_payload()`` method (e.g.
  :class:`~repro.engine.scheduler.SynthesisJob`) digest that stable
  payload, everything else digests structurally via
  :func:`repro.engine.persist.digest`.
* **lease** — a worker claims a task by atomically creating
  ``<key>.lease``; it heartbeats while the task runs.
* **ack** — the result is pickled to ``<key>.ack.pkl`` atomically *before*
  the lease is released, so an ack is always a complete result.  A
  re-dispatched task whose ack already exists replays the stored result
  instead of executing, which is what makes killed campaigns resume at
  task granularity.

The protocol lives behind a pluggable :class:`Broker` with two
implementations and one backend that dispatches through either:

* :class:`DirectoryBroker` — the PR 4 on-disk layout behind the protocol.
  ``<key>.ack.pkl`` and ``<key>.lease`` files are byte-compatible both ways
  (old acks replay, old leases parse; new leases add worker/host/deadline
  fields the old reader ignores).  Two more file kinds: ``<key>.task.json``
  (a pending task envelope a worker can pick up) and ``<key>.nack.json``
  (a failure record with a retry count).
* :class:`HttpBroker` — the same protocol spoken over the optimization
  service's versioned ``/v1/broker/*`` routes, so workers on other hosts
  need nothing but a URL.
* :class:`BrokerBackend` — ``BACKENDS['broker']``: publishes each
  ``map``'s tasks to a broker and collects their acks, while
  ``repro-adc worker`` processes execute them.

:func:`open_broker` turns one location — a directory path or an
``http://`` URL — into the matching broker; the backend factory,
``repro-adc worker`` and ``repro-adc status`` all open theirs through it.

Leases carry a TTL.  A worker extends its lease by heartbeating; a lease
whose deadline passed — or whose recorded pid is dead on this host — is
reclaimed and the task re-leased, so a SIGKILLed worker costs one TTL at
worst and usually nothing.  Determinism is inherited wholesale: tasks are
pure, results are assembled in task order, and an ack is byte-for-byte the
result the executing worker produced, so a fleet run replays into a store
byte-identical to the serial reference (the fabric tests and the CI
``fabric-e2e`` job enforce this).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Protocol, TypeVar, runtime_checkable

from repro.engine.persist import atomic_write_bytes, digest
from repro.errors import ServiceError, SpecificationError
from repro.obs import metrics

T = TypeVar("T")
R = TypeVar("R")

#: Pending-task envelope files (JSON, see :func:`repro.service.wire.encode_task`).
TASK_SUFFIX = ".task.json"

#: Completed-task result files (raw pickled results).
ACK_SUFFIX = ".ack.pkl"

#: In-flight claim markers.
LEASE_SUFFIX = ".lease"

#: Subdirectory of a :class:`DirectoryBroker` root holding one JSON record
#: per worker that ever leased from it (the fleet census; see
#: docs/observability.md).  File-backed on purpose: a broker restart
#: re-reads the same directory, so the census survives it.
WORKERS_DIRNAME = "workers"

#: A worker whose census record has not been refreshed for this many lease
#: TTLs is reported stale (dropped from :meth:`DirectoryBroker.workers`
#: unless explicitly asked for).  Three TTLs ≈ nine missed heartbeats.
STALE_AFTER_TTLS = 3.0

#: Worker ids come from the wire (HTTP bodies, CLI flags); everything that
#: becomes a census filename is squeezed through this first.
_WORKER_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")

#: Failure records: ``{"retries": N, "error": "..."}``.
NACK_SUFFIX = ".nack.json"

#: How many failed executions a task survives before the broker stops
#: re-leasing it and ``BrokerBackend`` surfaces the recorded error.
MAX_RETRIES = 3

#: Default lease time-to-live.  Synthesis tasks run seconds to low minutes,
#: and a worker heartbeats at TTL/3, so 60 s tolerates slow tasks while
#: keeping reclaim-after-SIGKILL prompt.
DEFAULT_LEASE_TTL = 60.0

#: :class:`BrokerBackend` no-progress timeout [s].  Finite on purpose:
#: ``--backend broker`` with zero attached workers must fail with a
#: diagnostic, not block ``map()`` forever.  A *live* lease counts as
#: progress (the holder's heartbeats keep it live), so this only has to
#: cover queue-drained-but-nobody-attached gaps, not slow tasks.
DEFAULT_WAIT_TIMEOUT = 300.0

#: Task keys are hex digests (sha256 via :func:`repro.engine.persist.digest`).
#: Everything the brokers touch on disk or serve over HTTP is validated
#: against this, so a key can never become a path traversal.
_KEY_RE = re.compile(r"^[0-9a-f]{8,128}$")


def check_key(key: str) -> str:
    """Validate a task key; returns it, raises ``ValueError`` otherwise."""
    if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
        raise ValueError(f"malformed task key {key!r}")
    return key


def task_key(fn: Callable, task: object) -> str | None:
    """Content address of one ``(fn, task)`` dispatch, or ``None``.

    ``None`` means the task has no stable identity (its structural digest
    raised) — it still executes, it just never replays from an ack.
    """
    payload_fn = getattr(task, "queue_payload", None)
    body = payload_fn() if callable(payload_fn) else task
    try:
        return digest({"fn": f"{fn.__module__}.{fn.__qualname__}", "task": body})
    except Exception:
        return None


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists (owned by someone else), or unknowable: keep it
    return True


@runtime_checkable
class Broker(Protocol):
    """What the fabric needs from a task broker.

    One task's lifecycle: ``submit`` publishes an envelope under its
    content-address key; a worker ``lease``s it (exclusively, with a TTL),
    ``heartbeat``s while executing, and finishes with ``ack`` (result bytes)
    or ``nack`` (failure + retry count).  ``result``/``failure`` are the
    submitter's view; ``reclaim`` breaks expired or dead leases so crashed
    workers never strand a task.
    """

    def submit(self, key: str, envelope: dict) -> bool:
        """Publish a task envelope; False if already known (ack or pending)."""
        ...

    def lease(self, worker: str) -> tuple[str, dict] | None:
        """Claim one pending task: ``(key, envelope)``, or None if drained."""
        ...

    def ack(self, key: str, payload: bytes, worker: str | None = None) -> None:
        """Record a completed task's result bytes; releases an owned lease."""
        ...

    def nack(self, key: str, worker: str | None = None, error: str | None = None) -> int:
        """Record a failed execution (ownership-gated); returns retry count."""
        ...

    def heartbeat(self, key: str, worker: str) -> bool:
        """Extend the worker's lease; False if the lease is gone or foreign."""
        ...

    def result(self, key: str) -> bytes | None:
        """Ack payload bytes, or None if the task has not completed."""
        ...

    def failure(self, key: str) -> dict | None:
        """``{"retries": N, "error": str}`` for a nacked task, else None."""
        ...

    def statuses(self, keys: Iterable[str]) -> dict[str, dict]:
        """One batched poll: ``{key: {"acked", "leased", "failure"}}``.

        ``acked`` — a result is stored; ``leased`` — a *live* (non-stale)
        claim exists right now; ``failure`` — the :meth:`failure` record.
        The submitter's polling loop calls this instead of two round trips
        per key.
        """
        ...

    def discard(self, key: str) -> None:
        """Drop a stored (e.g. corrupt) ack so the task can re-execute."""
        ...

    def reclaim(self) -> int:
        """Break stale leases (expired TTL / dead local pid); returns count."""
        ...

    def stats(self) -> dict:
        """Counters and live queue depths, for monitoring and tests."""
        ...


class DirectoryBroker:
    """The PR 4 on-disk queue layout, behind the :class:`Broker` protocol.

    One directory, four file kinds per task key: ``.task.json`` (pending
    envelope), ``.lease`` (exclusive claim, JSON with pid/worker/host/
    deadline), ``.ack.pkl`` (raw pickled result, written atomically), and
    ``.nack.json`` (retry count + last error).  Ack and lease files keep
    their original formats, so queue directories written by any earlier
    version replay here.

    Reclaim policy, per lease: an acked task's lease is simply swept; a
    lease past its deadline is broken.  A lease without a recorded
    deadline (a legacy ``{"pid": N}`` claim) expires ``lease_ttl`` after its
    file's mtime, and one that records no pid at all (mid-crash garbage) is
    broken at once.  A dead local pid breaks a lease early; a live pid
    never extends one — that covers the recycled-pid case, where a
    SIGKILLed worker's pid was reused by an unrelated process: the impostor
    pid looks alive, but the lease still dies when its TTL runs out.

    Ownership, per mutation: ``ack``/``nack``/``heartbeat`` only touch a
    lease the caller still owns (recorded worker matches, or — for legacy
    worker-less leases — recorded pid is this process).  A worker whose
    lease was reclaimed and re-leased therefore cannot delete or rewrite
    the new holder's claim: its ack still lands (results are deterministic,
    so a double execution's duplicate ack is byte-identical and harmless)
    but the lease stays with the new holder; its nack becomes a no-op
    "lease lost" instead of a spurious retry that could poison the task at
    :data:`MAX_RETRIES`.
    """

    def __init__(self, root: str | Path, lease_ttl: float = DEFAULT_LEASE_TTL):
        self.root = Path(root)
        self.lease_ttl = lease_ttl
        self.host = socket.gethostname()
        #: Serializes lease read-modify-write cycles (heartbeat, ownership
        #: checks before release, the reclaim sweep's staleness check before
        #: its unlink) against claim/release in this process.  The HTTP
        #: fabric funnels every lease mutation through the server's one
        #: DirectoryBroker, so in-process is the case that matters; two
        #: unrelated processes mutating one directory still have a small
        #: read-to-unlink window, which the ownership checks shrink from
        #: "any ack/nack clobbers any lease" to "a lost-lease race during
        #: the victim's own claim".
        self._mutex = threading.Lock()
        #: Guards :attr:`counters`: concurrent callers bump them at once.
        self._counter_lock = threading.Lock()
        self.counters = {
            "submitted": 0,
            "leased": 0,
            "acked": 0,
            "nacked": 0,
            "reclaimed": 0,
        }

    def _count(self, name: str) -> None:
        """Bump an instance counter and mirror it into the obs registry."""
        with self._counter_lock:
            self.counters[name] += 1
        metrics.counter(f"broker.{name}")

    # -- paths ----------------------------------------------------------------

    def _task_path(self, key: str) -> Path:
        return self.root / f"{check_key(key)}{TASK_SUFFIX}"

    def _lease_path(self, key: str) -> Path:
        return self.root / f"{check_key(key)}{LEASE_SUFFIX}"

    def _ack_path(self, key: str) -> Path:
        return self.root / f"{check_key(key)}{ACK_SUFFIX}"

    def _nack_path(self, key: str) -> Path:
        return self.root / f"{check_key(key)}{NACK_SUFFIX}"

    # -- submit / results ------------------------------------------------------

    def submit(self, key: str, envelope: dict) -> bool:
        """Publish ``envelope`` under ``key`` unless already acked/pending."""
        check_key(key)
        if self._ack_path(key).exists() or self._task_path(key).exists():
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        from repro.service import wire

        atomic_write_bytes(self._task_path(key), wire.canonical_json(envelope))
        self._count("submitted")
        return True

    def result(self, key: str) -> bytes | None:
        try:
            return self._ack_path(key).read_bytes()
        except OSError:
            return None

    def failure(self, key: str) -> dict | None:
        try:
            payload = json.loads(self._nack_path(key).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            retries = int(payload.get("retries", 0))
        except (TypeError, ValueError):
            retries = 0
        return {"retries": retries, "error": str(payload.get("error", ""))}

    def discard(self, key: str) -> None:
        try:
            self._ack_path(key).unlink()
        except OSError:
            pass

    def statuses(self, keys: Iterable[str]) -> dict[str, dict]:
        """Batched submitter poll: ack/lease/failure state per key.

        ``leased`` is True only for a *live* claim (an unexpired TTL with no
        conclusive dead-pid evidence) — a stale lease left by a killed
        worker must not count as progress, or a submitter waiting on it
        would never hit its no-progress timeout.
        """
        out: dict[str, dict] = {}
        for key in keys:
            check_key(key)
            out[key] = {
                "acked": self._ack_path(key).exists(),
                "leased": self._lease_is_stale(key) is False,
                "failure": self.failure(key),
            }
        return out

    # -- leases ----------------------------------------------------------------

    def claim(self, key: str, worker: str | None = None) -> bool:
        """Atomically create the lease file, body and all.

        A hard-link of a pre-written temp file gives ``O_CREAT | O_EXCL``
        exclusivity *and* makes the body appear atomically — a concurrent
        ``reclaim`` can never observe a half-written (empty) lease and
        mistake a live claim for crash garbage.
        """
        import tempfile

        from repro.service import wire

        self.root.mkdir(parents=True, exist_ok=True)
        body = wire.lease_body(
            pid=os.getpid(),
            worker=worker,
            host=self.host,
            deadline=time.time() + self.lease_ttl,
        ).encode("utf-8")
        fd, tmp_name = tempfile.mkstemp(prefix=".claim-", dir=self.root)
        try:
            os.write(fd, body)
        finally:
            os.close(fd)
        try:
            os.link(tmp_name, self._lease_path(key))
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp_name)
        return True

    def release(self, key: str) -> None:
        """Drop the lease file; tolerant of it already being gone."""
        with self._mutex:
            try:
                self._lease_path(key).unlink()
            except OSError:
                pass

    def lease_info(self, key: str) -> dict | None:
        """The parsed lease record for ``key``, or None if unleased."""
        from repro.service import wire

        try:
            return wire.parse_lease(
                self._lease_path(key).read_text(errors="replace")
            )
        except OSError:
            return None

    @staticmethod
    def _owns(parsed: dict, worker: str | None) -> bool:
        """Whether ``worker`` (or, legacy, this process) holds this lease."""
        if parsed["worker"] is not None:
            return parsed["worker"] == worker
        # Legacy worker-less lease: claimed in-process by a backend thread.
        return parsed["pid"] == os.getpid()

    def release_if_owner(self, key: str, worker: str | None) -> bool:
        """Drop the lease iff the caller still owns it; True if dropped."""
        with self._mutex:
            parsed = self.lease_info(key)
            if parsed is None or not self._owns(parsed, worker):
                return False
            try:
                self._lease_path(key).unlink()
            except OSError:
                return False
            return True

    def heartbeat(self, key: str, worker: str) -> bool:
        """Extend ``worker``'s lease on ``key``; False if lost or foreign."""
        from repro.service import wire

        lease = self._lease_path(key)
        with self._mutex:
            parsed = self.lease_info(key)
            if parsed is None or not self._owns(parsed, worker):
                return False
            # Rewrite-in-place (atomic replace) keeps the O_EXCL claim intact
            # for everyone else while pushing the deadline out.  The mutex
            # covers the read-check-write so a concurrent in-process
            # release + re-claim can't be overwritten with a stale record.
            atomic_write_bytes(
                lease,
                wire.lease_body(
                    pid=parsed["pid"] or os.getpid(),
                    worker=worker,
                    host=parsed["host"] or self.host,
                    deadline=time.time() + self.lease_ttl,
                ).encode("utf-8"),
            )
        self._touch_worker(worker)
        return True

    def _lease_is_stale(self, key: str) -> bool | None:
        """None: no lease. False: a live claim. True: break it."""
        from repro.service import wire

        lease = self._lease_path(key)
        try:
            parsed = wire.parse_lease(lease.read_text(errors="replace"))
            deadline = parsed["deadline"]
            if deadline is None:
                if parsed["pid"] <= 0:
                    return True  # no claimant recorded: crash garbage
                deadline = lease.stat().st_mtime + self.lease_ttl
        except FileNotFoundError:
            return None
        except OSError:
            return True
        if deadline <= time.time():
            return True
        # Unexpired: trust it even when the pid looks alive — a recycled pid
        # must not keep a dead worker's lease forever, and a live worker
        # heartbeats before the deadline anyway.  But a *local, dead* pid
        # is conclusive: break early, don't wait out the TTL.
        return (
            parsed["host"] in (None, self.host)
            and parsed["pid"] > 0
            and not _pid_alive(parsed["pid"])
        )

    def break_if_stale(self, key: str) -> bool:
        """Apply the reclaim policy to one key; True if a lease was broken."""
        if self._ack_path(key).exists():
            self.release(key)
            return False
        # Look and unlink under one lock: otherwise another in-process
        # worker could break this lease and re-claim the task in between,
        # and the unlink would drop that live claim.
        with self._mutex:
            if not self._lease_is_stale(key):
                return False
            try:
                self._lease_path(key).unlink()
            except OSError:
                pass
        self._count("reclaimed")
        return True

    def reclaim(self) -> int:
        """Sweep every lease in the directory; returns how many broke."""
        broken = 0
        try:
            leases = sorted(self.root.glob(f"*{LEASE_SUFFIX}"))
        except OSError:
            return 0
        for lease in leases:
            key = lease.name[: -len(LEASE_SUFFIX)]
            if _KEY_RE.fullmatch(key) and self.break_if_stale(key):
                broken += 1
        return broken

    # -- the fleet census ---------------------------------------------------------

    def _worker_path(self, worker: str) -> Path:
        safe = _WORKER_SAFE_RE.sub("_", str(worker))[:120] or "worker"
        return self.root / WORKERS_DIRNAME / f"{safe}.json"

    def register_worker(self, record: dict) -> None:
        """Create or refresh one worker's census record.

        ``record`` must carry ``worker`` (the id); anything else — host,
        pid, started_unix, current task, executed/failed counts,
        busy_seconds, a metrics snapshot — is merged over what is already
        on file.  ``last_seen`` is stamped here, ``registered_unix`` is
        preserved from the first registration, so the record answers both
        "is it alive?" and "how long has it been around?".
        """
        worker = str(record.get("worker", "")).strip()
        if not worker:
            raise ValueError("worker census record needs a non-empty 'worker' id")
        path = self._worker_path(worker)
        now = time.time()
        merged: dict = {"worker": worker, "registered_unix": now}
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing, dict):
                merged.update(existing)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            pass
        merged.update(record)
        merged["worker"] = worker
        merged["last_seen"] = now
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            path, json.dumps(merged, sort_keys=True, default=str).encode("utf-8")
        )

    def _touch_worker(self, worker: str | None) -> None:
        """Refresh ``last_seen`` on an existing census record (no-op else).

        Heartbeats route through here: a worker busy on one long task never
        posts a full census update, but its lease extensions keep it out of
        the stale set.
        """
        if not worker:
            return
        path = self._worker_path(worker)
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return
        if not isinstance(record, dict):
            return
        record["last_seen"] = time.time()
        atomic_write_bytes(
            path, json.dumps(record, sort_keys=True, default=str).encode("utf-8")
        )

    def workers(self, max_age: float | None = None) -> list[dict]:
        """The live fleet: census records seen within ``max_age`` seconds.

        ``max_age=None`` means :data:`STALE_AFTER_TTLS` lease TTLs — a
        worker that missed that many heartbeat windows is presumed dead and
        dropped from the listing (its record stays on disk, so a comeback
        under the same id resurrects it).  Pass ``max_age <= 0`` to list
        everything ever registered.
        """
        if max_age is None:
            max_age = STALE_AFTER_TTLS * self.lease_ttl
        cutoff = time.time() - max_age if max_age > 0 else None
        out: list[dict] = []
        try:
            paths = sorted((self.root / WORKERS_DIRNAME).glob("*.json"))
        except OSError:
            return out
        for path in paths:
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            if not isinstance(record, dict) or not record.get("worker"):
                continue
            try:
                last_seen = float(record.get("last_seen", 0.0))
            except (TypeError, ValueError):
                last_seen = 0.0
            if cutoff is not None and last_seen < cutoff:
                continue
            out.append(record)
        return out

    # -- the worker's pull loop --------------------------------------------------

    def lease(self, worker: str) -> tuple[str, dict] | None:
        """Reclaim, then claim the first leasable pending task."""
        # First contact registers the worker in the census — even a worker
        # that only ever polls an empty queue shows up in the fleet view.
        if worker and not self._worker_path(worker).exists():
            try:
                self.register_worker({"worker": worker})
            except (OSError, ValueError):
                pass
        self.reclaim()
        try:
            pending = sorted(self.root.glob(f"*{TASK_SUFFIX}"))
        except OSError:
            return None
        for path in pending:
            key = path.name[: -len(TASK_SUFFIX)]
            if not _KEY_RE.fullmatch(key):
                continue
            if self._ack_path(key).exists():
                # Completed while still listed: sweep the stale envelope.
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            record = self.failure(key)
            if record is not None and record["retries"] >= MAX_RETRIES:
                continue  # poisoned task: leave the evidence, stop re-leasing
            if self._lease_path(key).exists() or not self.claim(key, worker):
                continue
            if self._ack_path(key).exists():
                # Acked after the check above: its holder wrote the ack,
                # then released the lease this claim took.
                self.release(key)
                continue
            try:
                envelope = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                self.release(key)
                continue
            self._count("leased")
            return key, envelope
        return None

    # -- completion --------------------------------------------------------------

    def ack(self, key: str, payload: bytes, worker: str | None = None) -> None:
        """Atomically store the result, then clear lease/envelope/failure.

        The result and the envelope/failure sweeps are unconditional — tasks
        are pure, so even an ack from a worker whose lease was reclaimed is
        byte-identical to the rightful holder's and safe to store.  The
        *lease* is only dropped if the caller still owns it: a reclaimed
        worker must not delete the new holder's live claim (the new holder's
        own ack, or the acked-lease sweep in :meth:`break_if_stale`, clears
        it instead).
        """
        atomic_write_bytes(self._ack_path(key), payload)
        self._count("acked")
        self.release_if_owner(key, worker)
        for path in (self._task_path(key), self._nack_path(key)):
            try:
                path.unlink()
            except OSError:
                pass

    def nack(self, key: str, worker: str | None = None, error: str | None = None) -> int:
        """Record one failed execution and release the lease.

        Ownership-gated: if the caller's lease was reclaimed and possibly
        re-leased, its failure report is dropped — the rightful holder's
        execution is the one that counts, and a zombie's nack must not burn
        a retry (three zombies would poison the task at
        :data:`MAX_RETRIES`).  Returns the retry count on record either way.
        """
        record = self.failure(key) or {"retries": 0, "error": ""}
        if not self.release_if_owner(key, worker):
            return record["retries"]  # lease lost: not our failure to record
        retries = record["retries"] + 1
        atomic_write_bytes(
            self._nack_path(key),
            json.dumps(
                {"retries": retries, "error": error or record["error"]},
                sort_keys=True,
            ).encode("utf-8"),
        )
        self._count("nacked")
        return retries

    def stats(self) -> dict:
        """Counters plus a live census of the directory."""

        def count(suffix: str) -> int:
            try:
                return sum(1 for _ in self.root.glob(f"*{suffix}"))
            except OSError:
                return 0

        return {
            **self.counters,
            "pending": count(TASK_SUFFIX),
            "leases": count(LEASE_SUFFIX),
            "acks": count(ACK_SUFFIX),
            "lease_ttl": self.lease_ttl,
            "workers": self.workers(),
        }


@contextlib.contextmanager
def lease_heartbeat(
    broker: Broker, key: str, worker: str, interval: float
) -> Iterator[threading.Event]:
    """Extend ``worker``'s lease on ``key`` every ``interval`` seconds.

    Wrap the execution of one leased task; the background thread stops when
    the ``with`` block exits, when a beat reports the lease lost (reclaimed
    or foreign — keep computing, the ack is still valid, but stop fighting
    for the claim), or on transport loss (the TTL decides from there).  The
    yielded event is set iff the lease was lost mid-flight, for callers
    that want to log it.
    """
    done = threading.Event()
    lost = threading.Event()

    def beat() -> None:
        while not done.wait(interval):
            try:
                if not broker.heartbeat(key, worker):
                    lost.set()
                    return
            except Exception:
                return

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield lost
    finally:
        done.set()
        thread.join()


class HttpBroker:
    """The :class:`Broker` protocol over ``/v1/broker/*`` (stdlib only).

    Thin and stateless: one short-lived connection per call (the service
    closes connections after each response anyway).  Transport failures
    raise :class:`~repro.errors.ServiceError`; the server's single-line
    error bodies pass through verbatim.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        from urllib.parse import urlsplit

        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ServiceError(
                f"unsupported broker URL scheme {split.scheme!r} (use http://)"
            )
        if not split.hostname:
            raise ServiceError(f"cannot parse broker URL {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout
        self.base_url = f"http://{self.host}:{self.port}"

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, bytes]:
        from http.client import HTTPConnection, HTTPException

        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, HTTPException) as exc:
            raise ServiceError(
                f"cannot reach broker at {self.base_url} ({exc})"
            ) from exc
        finally:
            connection.close()

    def _json(self, method: str, path: str, body: dict | None = None) -> dict:
        status, data = self._request(method, path, body)
        if status >= 400:
            try:
                message = str(json.loads(data)["error"])
            except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError):
                message = f"broker returned HTTP {status}"
            raise ServiceError(message)
        try:
            return json.loads(data) if data else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"malformed response from broker at {self.base_url} ({exc})"
            ) from exc

    def submit(self, key: str, envelope: dict) -> bool:
        reply = self._json(
            "POST", "/v1/broker/tasks", {"key": check_key(key), "envelope": envelope}
        )
        return bool(reply.get("submitted"))

    def lease(self, worker: str) -> tuple[str, dict] | None:
        reply = self._json("POST", "/v1/broker/lease", {"worker": worker})
        task = reply.get("task")
        if not task:
            return None
        return check_key(task["key"]), task["envelope"]

    def ack(self, key: str, payload: bytes, worker: str | None = None) -> None:
        from repro.service import wire

        self._json(
            "POST",
            "/v1/broker/ack",
            {
                "key": check_key(key),
                "worker": worker,
                "result_b64": wire.encode_result_b64(payload),
            },
        )

    def nack(self, key: str, worker: str | None = None, error: str | None = None) -> int:
        reply = self._json(
            "POST",
            "/v1/broker/nack",
            {"key": check_key(key), "worker": worker, "error": error},
        )
        return int(reply.get("retries", 0))

    def heartbeat(self, key: str, worker: str) -> bool:
        reply = self._json(
            "POST", "/v1/broker/heartbeat", {"key": check_key(key), "worker": worker}
        )
        return bool(reply.get("ok"))

    def result(self, key: str) -> bytes | None:
        status, data = self._request("GET", f"/v1/broker/results/{check_key(key)}")
        if status == 404:
            return None
        if status >= 400:
            raise ServiceError(f"broker returned HTTP {status} for result {key}")
        return data

    def failure(self, key: str) -> dict | None:
        reply = self._json("GET", f"/v1/broker/tasks/{check_key(key)}")
        failure = reply.get("failure")
        if not failure:
            return None
        return {
            "retries": int(failure.get("retries", 0)),
            "error": str(failure.get("error", "")),
        }

    def statuses(self, keys: Iterable[str]) -> dict[str, dict]:
        """One POST per ~1000 keys instead of two GETs per key."""
        out: dict[str, dict] = {}
        chunk = [check_key(key) for key in keys]
        for start in range(0, len(chunk), 1000):
            reply = self._json(
                "POST", "/v1/broker/status", {"keys": chunk[start : start + 1000]}
            )
            statuses = reply.get("statuses")
            if not isinstance(statuses, dict):
                raise ServiceError(
                    f"malformed status reply from broker at {self.base_url}"
                )
            for key, record in statuses.items():
                out[check_key(key)] = {
                    "acked": bool(record.get("acked")),
                    "leased": bool(record.get("leased")),
                    "failure": record.get("failure"),
                }
        return out

    def discard(self, key: str) -> None:
        self._json("POST", "/v1/broker/discard", {"key": check_key(key)})

    def reclaim(self) -> int:
        return int(self._json("POST", "/v1/broker/reclaim").get("reclaimed", 0))

    def register_worker(self, record: dict) -> None:
        self._json("POST", "/v1/broker/workers", {"record": record})

    def workers(self, max_age: float | None = None) -> list[dict]:
        reply = self._json("GET", "/v1/broker/workers")
        workers = reply.get("workers")
        return [w for w in workers if isinstance(w, dict)] if isinstance(workers, list) else []

    def stats(self) -> dict:
        return self._json("GET", "/v1/broker/stats")


def open_broker(location: str, lease_ttl: float = DEFAULT_LEASE_TTL) -> Broker:
    """The broker at ``location``: an ``http://`` URL or a directory.

    A location containing ``://`` is an :class:`HttpBroker` (which refuses
    any scheme but ``http``); anything else is a :class:`DirectoryBroker`
    rooted there, created on first use.  A path that exists and is not a
    directory fails here with one line instead of deep inside a ``map``.
    ``lease_ttl`` is stamped on a directory broker's leases; an HTTP
    broker's leases carry the server's.
    """
    if "://" in location:
        return HttpBroker(location)
    if Path(location).exists() and not Path(location).is_dir():
        raise SpecificationError(
            f"broker {location!r} exists and is not a directory "
            "(pass a directory path or an http:// URL)"
        )
    return DirectoryBroker(location, lease_ttl=lease_ttl)


class BrokerBackend:
    """``BACKENDS['broker']``: ``map`` via a broker's attached workers.

    Every ``map`` publishes its tasks (content-addressed envelopes via
    :func:`repro.service.wire.encode_task`) and collects their acks, while
    ``repro-adc worker`` processes anywhere that can reach the broker
    execute them.  Acked results replay, so a resumed or re-sharded
    campaign only runs the unfinished tail.  Tasks with no stable key
    (their digest raised) cannot ship and run in-process, preserving the
    backend contract.
    """

    name = "broker"

    def __init__(
        self,
        broker: Broker,
        *,
        poll_interval: float = 0.05,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
    ):
        self.broker = broker
        self.poll_interval = poll_interval
        #: Give up if nothing moves — no ack, no failure, no *live* lease —
        #: for this many seconds.  Guards against a fleet of zero workers;
        #: a leased task under execution counts as progress, so slow tasks
        #: don't trip it.
        self.wait_timeout = wait_timeout
        #: Tasks served from an existing ack instead of dispatching.
        self.replayed = 0
        #: Tasks published to the broker by this backend.
        self.dispatched = 0

    def _take_result(self, key: str) -> tuple[bool, Any]:
        """(done, value) for one key.

        An ack that does not decode is discarded and comes back as
        ``(False, error)``, the error a one-line ``Type: message``; the
        caller publishes the task again.  No ack is ``(False, None)``.
        """
        from repro.service import wire

        payload = self.broker.result(key)
        if payload is None:
            return False, None
        try:
            return True, wire.decode_result(payload)
        except Exception as exc:
            self.broker.discard(key)
            return False, " ".join(f"{type(exc).__name__}: {exc}".split())

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Publish every task, collect the acks, return results in task order."""
        from repro.service import wire

        task_list = list(tasks)
        if not task_list:
            return []
        keys = [task_key(fn, task) for task in task_list]

        results: dict[str, Any] = {}
        outstanding: dict[str, T] = {}
        unkeyed: list[int] = []
        # Acks refused by the decoder, per key.  The worker's ack deleted
        # the task envelope, so a refused key is published again on every
        # poll until it is acked again (submit is a no-op while the
        # envelope or an ack exists); MAX_RETRIES refusals end the map.
        refused: dict[str, int] = {}

        def refuse(key: str, error: str) -> None:
            refused[key] = refused.get(key, 0) + 1
            if refused[key] >= MAX_RETRIES:
                raise RuntimeError(
                    f"broker task {key[:12]} returned a result that does not "
                    f"decode {refused[key]} time(s): {error}"
                )

        for i, (key, task) in enumerate(zip(keys, task_list)):
            if key is None:
                unkeyed.append(i)
                continue
            if key in results or key in outstanding:
                continue
            done, value = self._take_result(key)
            if done:
                self.replayed += 1
                results[key] = value
                continue
            if value is not None:
                refuse(key, value)
            outstanding[key] = task

        for key, task in outstanding.items():
            if self.broker.submit(key, wire.encode_task(fn, task)):
                self.dispatched += 1

        last_progress = time.monotonic()
        delay = self.poll_interval
        while outstanding:
            # One batched status poll for every outstanding key (a single
            # HTTP round trip on HttpBroker); result *bytes* are fetched
            # only for keys the poll reports acked.
            statuses = self.broker.statuses(list(outstanding))
            completed = []
            live_leases = 0
            republished = 0
            for key in outstanding:
                status = statuses.get(key, {})
                if status.get("acked"):
                    done, value = self._take_result(key)
                    if done:
                        results[key] = value
                        completed.append(key)
                        continue
                    if value is not None:
                        refuse(key, value)
                if key in refused and self.broker.submit(
                    key, wire.encode_task(fn, outstanding[key])
                ):
                    republished += 1
                if status.get("leased"):
                    live_leases += 1
                record = status.get("failure")
                if record is not None and record["retries"] >= MAX_RETRIES:
                    raise RuntimeError(
                        f"broker task {key[:12]} failed {record['retries']} "
                        f"time(s): {record['error']}"
                    )
            for key in completed:
                del outstanding[key]
            if completed or live_leases or republished:
                # A live lease is a worker mid-task: that is progress even
                # when no ack lands this poll, so slow tasks never trip the
                # no-progress timeout — only a genuinely idle queue does.
                last_progress = time.monotonic()
                delay = self.poll_interval
            elif time.monotonic() - last_progress > self.wait_timeout:
                raise RuntimeError(
                    f"no broker progress for {self.wait_timeout:.0f}s with "
                    f"{len(outstanding)} task(s) outstanding — are any "
                    "repro-adc workers attached?"
                )
            else:
                # Nothing moved: back the poll off (capped at ~1 s) so an
                # idle wait costs the server a couple of requests a second,
                # not hundreds.
                delay = min(delay * 1.5, max(self.poll_interval, 1.0))
            if outstanding:
                time.sleep(delay)

        # Unkeyed tasks cannot ship (no stable identity): run them here.
        unkeyed_results = {i: fn(task_list[i]) for i in unkeyed}
        return [
            unkeyed_results[i] if key is None else results[key]
            for i, key in enumerate(keys)
        ]

    def close(self) -> None:
        """No-op: the broker and its workers outlive the backend."""
        return None

    def __enter__(self) -> "BrokerBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


__all__ = [
    "ACK_SUFFIX",
    "Broker",
    "BrokerBackend",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_WAIT_TIMEOUT",
    "DirectoryBroker",
    "HttpBroker",
    "LEASE_SUFFIX",
    "MAX_RETRIES",
    "NACK_SUFFIX",
    "STALE_AFTER_TTLS",
    "TASK_SUFFIX",
    "WORKERS_DIRNAME",
    "check_key",
    "lease_heartbeat",
    "open_broker",
    "task_key",
]
