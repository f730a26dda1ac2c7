"""The asyncio job scheduler: priority + fairness queues over executor threads.

``JobScheduler`` is the heart of the service.  It owns the in-memory job
table (mirrored to the :class:`~repro.service.jobs.JobStore` at every state
transition), the run queue, and the bridge between the asyncio control
plane and the *blocking* optimization flow:

* **Queueing** — jobs wait in per-priority buckets (lowest number first);
  inside a bucket the scheduler round-robins across client tags, so a
  client that floods fifty submissions shares the bucket fairly with the
  client that submitted one.
* **Coalescing** — submissions are content-addressed
  (:func:`~repro.service.jobs.parse_request`).  A submission whose key is
  already queued, running or done attaches to the existing job instead of
  enqueueing a duplicate: one computation, N satisfied clients.  Failed or
  cancelled keys re-enqueue on resubmission.
* **Executor bridging** — worker coroutines pull the next key and run the
  blocking flow (`run_campaign` / `optimize_topology`) on a thread pool via
  ``loop.run_in_executor``; progress callbacks hop back onto the loop with
  ``call_soon_threadsafe`` and fan out to event subscribers.
* **Drain & recovery** — :meth:`drain` cancels running campaigns at their
  next scenario boundary (the engine's :class:`CancelToken`), requeues
  them, and waits the workers out; :meth:`start` re-enqueues every
  persisted ``queued``/``running`` record, so a restarted server picks the
  queue back up without recomputing completed jobs (their results are on
  disk, keyed by content).  A recovered request this server no longer
  accepts fails at once; an identical resubmission re-runs with its own
  body.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.campaign.runner import run_campaign
from repro.obs import metrics
from repro.engine.cancel import CancelToken
from repro.errors import CampaignInterrupted, SpecificationError
from repro.flow.topology import optimize_topology
from repro.service.jobs import (
    TERMINAL_STATES,
    JobRecord,
    JobRequest,
    JobStore,
    campaign_payload,
    parse_request,
    topology_payload,
)

#: Job states a new identical submission can attach to (coalesce).
_COALESCABLE = ("queued", "running", "done")


class JobScheduler:
    """Priority/fairness job queue executing on a thread pool.

    All state is owned by the event loop that runs :meth:`start`; the only
    cross-thread traffic is the executor publishing progress through
    ``call_soon_threadsafe``.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        job_workers: int = 1,
        cache_dir: str | None = None,
        broker_dir: str | None = None,
    ):
        if job_workers < 1:
            raise SpecificationError("job_workers must be >= 1")
        self.store = store
        self.job_workers = job_workers
        #: Server-side persistent block-cache directory for every job.
        self.cache_dir = cache_dir
        #: Directory of the server's task broker: a ``backend: broker`` job
        #: is pointed here, so its tasks appear on the same broker the
        #: ``/v1/broker/*`` routes serve and any attached ``repro-adc
        #: worker`` executes them.  Clients never choose the path.
        self.broker_dir = broker_dir
        self.jobs: dict[str, JobRecord] = {}
        self._buckets: dict[int, dict[str, deque[str]]] = {}
        self._rr: dict[int, deque[str]] = {}
        self._subscribers: dict[str, set[asyncio.Queue]] = {}
        self._tokens: dict[str, CancelToken] = {}
        self._workers: list[asyncio.Task] = []
        self._wakeup = asyncio.Event()
        self._draining = False
        self._seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-job"
        )
        self.counters = {
            "submissions": 0,
            "coalesced": 0,
            "executions": 0,
            "completed": 0,
            "failed": 0,
            "requeued": 0,
            "recovered": 0,
        }

    def _count(self, name: str) -> None:
        """Bump an instance counter, mirrored into the obs registry.

        The instance dict keeps per-scheduler exactness (``stats()`` and
        the tests read it); the ``service.*`` mirror is what ``/v1/metrics``
        and an aggregated ``metrics.json`` see.
        """
        self.counters[name] += 1
        metrics.counter(f"service.{name}")

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Recover persisted jobs and start the worker coroutines."""
        self._loop = asyncio.get_running_loop()
        for record in self.store.load_all():
            if record.key in self.jobs:
                continue  # submitted live before start(): already queued
            self.jobs[record.key] = record
            self._seq = max(self._seq, record.seq)
            if record.state == "done" and self.store.result_ready(record.key):
                continue
            if record.state in ("queued", "running", "done"):
                try:
                    parse_request(record.request)
                except SpecificationError as exc:
                    # Persisted by a server that accepted fields this one
                    # no longer does: fail it now, so nothing coalesces
                    # onto a job that cannot run.
                    record.state = "failed"
                    record.error = f"{type(exc).__name__}: {exc}"
                    record.finished_unix = time.time()
                    self.store.save(record)
                    self._count("failed")
                    continue
                # running = interrupted mid-job; done-without-result = the
                # artifacts vanished.  Both re-enqueue; campaign jobs resume
                # from their per-job checkpointed store.
                record.state = "queued"
                self.store.save(record)
                self._enqueue(record)
                self._count("recovered")
        for _ in range(self.job_workers):
            self._workers.append(asyncio.ensure_future(self._worker()))

    async def drain(self) -> None:
        """Stop gracefully: cancel running campaigns at the next scenario
        boundary, requeue them, and wait the workers out.

        Idempotent.  After a drain the persisted queue is exactly what a
        restarted scheduler re-enqueues.
        """
        if not self._draining:
            self._draining = True
            for token in self._tokens.values():
                token.cancel()
            self._wakeup.set()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
            self._workers.clear()
        self._executor.shutdown(wait=True)

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission & queue --------------------------------------------------

    def submit(self, body: Any) -> tuple[JobRecord, bool]:
        """Admit one submission; returns ``(record, coalesced)``.

        Raises :class:`SpecificationError` for malformed bodies and when
        the scheduler is draining (the server maps both to HTTP errors).
        """
        if self._draining:
            raise SpecificationError("service is draining; resubmit after restart")
        request = parse_request(body)
        self._count("submissions")
        record = self.jobs.get(request.key)
        stale_done = (
            record is not None
            and record.state == "done"
            and not self.store.result_ready(record.key)
        )
        if record is not None and not stale_done and record.state in _COALESCABLE:
            record.submissions += 1
            self._count("coalesced")
            if record.state == "queued" and request.priority < record.priority:
                # A more urgent identical submission escalates the queued
                # job rather than waiting at the original priority.
                self._escalate(record, request.priority)
            self.store.save(record)
            return record, True
        if record is not None:  # failed, cancelled, or done-with-lost-result
            # The re-run executes this submission's body: a stored one may
            # carry fields this server refuses.
            record.kind = request.kind
            record.request = request.body
            record.total_scenarios = request.total_scenarios
            record.state = "queued"
            record.error = None
            record.submissions += 1
            record.finished_unix = None
            record.priority = request.priority  # the re-run takes the new urgency
        else:
            record = JobRecord(
                key=request.key,
                kind=request.kind,
                request=request.body,
                priority=request.priority,
                client=request.client,
                seq=self._next_seq(),
                total_scenarios=request.total_scenarios,
            )
            self.jobs[record.key] = record
        self.store.save(record)
        self._enqueue(record)
        self._publish(record.key, {"event": "queued"})
        return record, False

    def cancel(self, key: str) -> bool:
        """Cancel a *queued* job; returns whether anything was cancelled.

        Running jobs are not interrupted (blocking backends finish their
        current work; a drain is the graceful way to stop those), and
        terminal jobs are left alone.
        """
        record = self.jobs.get(key)
        if record is None or record.state != "queued":
            return False
        bucket = self._buckets.get(record.priority, {})
        queue = bucket.get(record.client)
        if queue is None or key not in queue:
            return False
        queue.remove(key)
        self._forget_if_empty(record.priority, record.client)
        record.state = "cancelled"
        record.finished_unix = time.time()
        self.store.save(record)
        self._publish(key, {"event": "cancelled"})
        return True

    def find(self, job_id: str) -> JobRecord | None:
        """Resolve a short id or full key to its record."""
        record = self.jobs.get(job_id)
        if record is not None:
            return record
        matches = [r for k, r in self.jobs.items() if k.startswith(job_id)]
        return matches[0] if len(matches) == 1 else None

    def stats(self) -> dict:
        """Queue/coalescing counters for ``GET /stats`` and the bench."""
        queued = sum(
            len(queue)
            for bucket in self._buckets.values()
            for queue in bucket.values()
        )
        return {
            **self.counters,
            "queued": queued,
            "running": len(self._tokens),
            "jobs": len(self.jobs),
            "draining": self._draining,
        }

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _enqueue(self, record: JobRecord) -> None:
        bucket = self._buckets.setdefault(record.priority, {})
        bucket.setdefault(record.client, deque()).append(record.key)
        rotation = self._rr.setdefault(record.priority, deque())
        if record.client not in rotation:
            rotation.append(record.client)
        self._wakeup.set()

    def _escalate(self, record: JobRecord, priority: int) -> None:
        """Move a queued record into a more urgent priority bucket."""
        bucket = self._buckets.get(record.priority, {})
        queue = bucket.get(record.client)
        if queue is None or record.key not in queue:
            return  # a worker already picked it up
        queue.remove(record.key)
        self._forget_if_empty(record.priority, record.client)
        record.priority = priority
        self._enqueue(record)

    def _forget_if_empty(self, priority: int, client: str) -> None:
        bucket = self._buckets.get(priority)
        if bucket is None:
            return
        queue = bucket.get(client)
        if queue is not None and not queue:
            del bucket[client]
            rotation = self._rr.get(priority)
            if rotation is not None and client in rotation:
                rotation.remove(client)
        if not bucket:
            self._buckets.pop(priority, None)
            self._rr.pop(priority, None)

    def _pop_next(self) -> str | None:
        """Next key to run: lowest priority bucket, clients round-robin."""
        for priority in sorted(self._buckets):
            rotation = self._rr.get(priority, deque())
            for _ in range(len(rotation)):
                client = rotation[0]
                rotation.rotate(-1)
                queue = self._buckets[priority].get(client)
                if queue:
                    key = queue.popleft()
                    self._forget_if_empty(priority, client)
                    return key
        return None

    # -- events --------------------------------------------------------------

    def subscribe(self, key: str) -> asyncio.Queue:
        """Open an event stream on a job: a snapshot, then live events."""
        queue: asyncio.Queue = asyncio.Queue()
        record = self.jobs[key]
        queue.put_nowait({"event": "state", **record.summary()})
        self._subscribers.setdefault(key, set()).add(queue)
        return queue

    def unsubscribe(self, key: str, queue: asyncio.Queue) -> None:
        subscribers = self._subscribers.get(key)
        if subscribers is not None:
            subscribers.discard(queue)
            if not subscribers:
                del self._subscribers[key]

    def _publish(self, key: str, extra: dict) -> None:
        record = self.jobs[key]
        if extra.get("event") == "scenario":
            record.completed_scenarios = extra.get(
                "completed", record.completed_scenarios
            )
        event = {**extra, **record.summary(), "event": extra.get("event")}
        for queue in self._subscribers.get(key, ()):  # snapshot-safe: no resize
            queue.put_nowait(event)

    def _publish_threadsafe(self, key: str, extra: dict) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._publish, key, extra)

    # -- execution -----------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            if self._draining:
                return
            key = self._pop_next()
            if key is None:
                self._wakeup.clear()
                if self._draining:
                    return
                await self._wakeup.wait()
                continue
            try:
                await self._run_job(key)
            except Exception as exc:
                # A failure outside the job's own guard (e.g. the record
                # store became unwritable) must not kill the worker — a
                # dead worker would wedge the whole server while /healthz
                # keeps reporting ok.  Mark the job failed best-effort and
                # keep serving.
                record = self.jobs.get(key)
                if record is not None and record.state == "running":
                    record.state = "failed"
                    record.error = f"scheduler error: {type(exc).__name__}: {exc}"
                    self._count("failed")
                    try:
                        self.store.save(record)
                    except Exception:
                        pass  # the store is the thing that is broken
                    self._publish(key, {"event": "failed"})

    async def _run_job(self, key: str) -> None:
        record = self.jobs[key]
        token = CancelToken()
        self._tokens[key] = token
        assert self._loop is not None
        try:
            record.state = "running"
            record.executions += 1
            self._count("executions")
            self.store.save(record)
            self._publish(key, {"event": "started"})
            await self._loop.run_in_executor(
                self._executor, self._execute, record, token
            )
        except CampaignInterrupted as exc:
            record.state = "queued"
            record.completed_scenarios = exc.completed
            self._count("requeued")
            self._save_quietly(record)
            self._publish(key, {"event": "requeued"})
            self._enqueue(record)
        except Exception as exc:  # job failure must not kill the worker
            record.state = "failed"
            record.error = f"{type(exc).__name__}: {exc}"
            record.finished_unix = time.time()
            self._count("failed")
            self._save_quietly(record)
            self._publish(key, {"event": "failed"})
        else:
            record.state = "done"
            record.completed_scenarios = record.total_scenarios
            record.finished_unix = time.time()
            self._count("completed")
            self._save_quietly(record)
            self._publish(key, {"event": "done"})
        finally:
            self._tokens.pop(key, None)

    def _save_quietly(self, record: JobRecord) -> None:
        """Persist a terminal transition without masking the event.

        If the record store is unwritable (disk full), the in-memory state
        is still authoritative for live clients — the terminal event must
        reach them regardless.  The stale on-disk record only costs an
        idempotent re-execution after a restart (results are
        content-addressed), which is strictly better than a silent hang.
        """
        try:
            self.store.save(record)
        except Exception:
            import traceback

            traceback.print_exc()

    def _execute(self, record: JobRecord, token: CancelToken) -> None:
        """Run one job's blocking flow (executor thread)."""
        request = JobRequest(
            kind=record.kind,
            body=record.request,
            key=record.key,
            priority=record.priority,
            client=record.client,
        )
        config = request.config(cache_dir=self.cache_dir)
        if config.backend == "broker":
            if self.broker_dir is None:
                raise SpecificationError(
                    "this server has no task broker; submit with a local "
                    "backend (serial, process)"
                )
            # Dispatch through the server's own directory broker — the same
            # state the HTTP broker routes serve — so remote workers execute
            # the tasks while this thread assembles results.
            config = dataclasses.replace(config, broker=self.broker_dir)
        if record.kind == "campaign":
            grid = request.grid()

            def progress(scenario_result) -> None:
                rec = scenario_result.record
                self._publish_threadsafe(
                    record.key,
                    {
                        "event": "scenario",
                        "label": rec.label,
                        "winner": rec.winner,
                        "winner_power_w": rec.winner_power_w,
                        "completed": rec.index + 1,
                        "replayed": scenario_result.replayed,
                    },
                )

            # resume=True replays this job's own checkpoints: a requeued or
            # recovered job re-executes only the scenarios that never
            # committed.  On a fresh store it is a no-op.
            result = run_campaign(
                grid,
                config,
                progress=progress,
                store_dir=self.store.campaign_store_dir(record.key),
                resume=True,
                cancel=token,
            )
            self.store.write_result(record.key, campaign_payload(result.records))
        else:
            result = optimize_topology(
                request.spec(), mode=request.mode, config=config
            )
            self.store.write_result(record.key, topology_payload(result))


__all__ = ["JobScheduler", "TERMINAL_STATES"]
