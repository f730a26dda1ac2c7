"""One wire format for everything that crosses a process boundary.

Four payload kinds live here, with explicit schema versions: the job
store's canonical result summaries
(``topology_payload`` / ``campaign_payload``, used by
:mod:`repro.service.jobs`), the task identity payload
(:meth:`~repro.engine.scheduler.SynthesisJob.queue_payload`), the lease
JSON, and the ``(fn, task)`` envelopes and results the brokers ship
between submitters and workers (:mod:`repro.engine.broker`).

Layering: this is a *leaf* module — stdlib plus
:mod:`repro.engine.persist` only — so both the engine (broker, worker,
scheduler) and the service (jobs, server) can import it without cycles.
Engine modules that are part of the ``repro`` package import chain load it
lazily inside functions.

Compatibility contracts enforced by ``tests/service/test_wire.py``:

* :func:`synthesis_task_payload` must stay **byte-identical** to the PR 4
  ``SynthesisJob.queue_payload`` dict — its digest keys every persisted
  ``.ack.pkl``; changing it orphans every completed task on disk.  Its
  ``"kind"`` field is the schema tag (a ``"schema"`` key would change the
  digest).
* Result payloads stay raw :mod:`pickle` bytes on disk (the PR 4 ack
  format — old acks still replay); :func:`encode_result_b64` /
  :func:`decode_result_b64` only wrap them for JSON transport over the
  HTTP broker, and :func:`decode_result` reads them through the
  restricted unpickler described below.
* :func:`parse_lease` accepts every lease body ever written: the v1 fabric
  dict (pid/worker/host/deadline), the PR 4 ``{"pid": N}`` dict, a bare
  integer, and garbage (which parses to a dead claim, never an error).

Trust model: task and result bodies are pickle *bytes* (the PR 4 ack
format), but they are never fed to a bare ``pickle.loads``.  Both decode
through :func:`restricted_loads`, whose ``find_class`` admits only
``repro.*`` **classes** plus the numpy scalar globals real payloads use
(:data:`_SAFE_GLOBALS`).  Arbitrary importables — ``os.system``,
``subprocess.Popen``, ``builtins.eval``, a builtin constructor, even
``repro`` module-level *functions* (call gadgets: ``REDUCE`` invokes
whatever ``find_class`` returns) — raise ``pickle.UnpicklingError``
before any code runs.  Together with the worker's task-function allow-list this is what
lets a broker accept envelopes from untrusted submitters without handing
them code execution; what remains reachable is constructing ``repro`` data
objects with attacker-chosen fields, which the task functions treat as
(possibly garbage) work.
"""

from __future__ import annotations

import base64
import binascii
import io
import json
import math
import pickle
import pickletools
from typing import Any, Callable, Iterable

#: Version tag stamped on v1 wire payloads (task envelopes, leases,
#: result summaries).  Bump when a payload changes shape; readers accept
#: anything ``<=`` their own version.
WIRE_SCHEMA = 1


def canonical_json(payload: Any) -> bytes:
    """Sorted-key, whitespace-free JSON + newline — the artifact format."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


# -- restricted unpickling ----------------------------------------------------

#: The non-``repro`` globals real wire payloads reference: a numpy scalar
#: (an ``np.float64`` inside a result) pickles as ``scalar(dtype, bytes)``,
#: its module ``numpy.core.multiarray`` before numpy 2 and
#: ``numpy._core.multiarray`` since.  Nothing else: a builtin constructor
#: such as ``bytearray`` or ``range`` would let a few bytes of pickle ask
#: for gigabytes.  ``tests/service/test_wire.py`` walks payloads of every
#: production task and result type and pins this set to what they use.
_SAFE_GLOBALS = frozenset(
    [
        ("numpy", "dtype"),
        ("numpy.core.multiarray", "scalar"),
        ("numpy._core.multiarray", "scalar"),
    ]
)


class _RestrictedUnpickler(pickle.Unpickler):
    """``pickle.Unpickler`` that refuses code-execution gadgets.

    ``find_class`` is the only door a pickle has into the interpreter's
    namespace; narrowing it to :data:`_SAFE_GLOBALS` plus ``repro.*``
    *classes* (not functions — ``REDUCE`` calls whatever comes back) turns
    a hostile payload into an :class:`pickle.UnpicklingError` instead of a
    remote shell.
    """

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) in _SAFE_GLOBALS:
            return super().find_class(module, name)
        if module == "repro" or module.startswith("repro."):
            target = super().find_class(module, name)
            if isinstance(target, type):
                return target
            raise pickle.UnpicklingError(
                f"wire payloads may reference repro classes, not "
                f"{module}.{name} (a {type(target).__name__})"
            )
        raise pickle.UnpicklingError(
            f"wire payloads may not reference {module}.{name}"
        )


#: Opcodes that store into the unpickler's memo at an index they name.
_MEMO_PUTS = frozenset({"PUT", "BINPUT", "LONG_BINPUT"})


def _check_bounds(payload: bytes) -> None:
    """Refuse a pickle whose opcodes ask for more than the payload holds.

    The unpickler allocates what an opcode declares before it reads it: a
    bytes or bytearray length, or a memo table large enough for a memo
    index.  So a nine-byte body can ask for gigabytes or raise
    ``OverflowError``.  :func:`pickletools.genops` reads no more than the
    payload holds and raises ``ValueError`` for a declared length past
    its end.  A memo index at or above the payload's length is refused
    too: a real pickle numbers its memo entries from 0, at least one
    opcode byte each.  Raises :class:`pickle.UnpicklingError`.
    """
    size = len(payload)
    try:
        for opcode, arg, _ in pickletools.genops(payload):
            if opcode.name in _MEMO_PUTS and arg >= size:
                raise ValueError(f"memo index {arg} past a {size}-byte pickle")
    except Exception as exc:
        raise pickle.UnpicklingError(f"malformed wire pickle: {exc}") from exc


def restricted_loads(payload: bytes) -> Any:
    """``pickle.loads`` through the wire allow-list (see module docstring).

    Raises :class:`pickle.UnpicklingError` for anything referencing a
    global outside the allow-list, and for a payload whose opcodes do not
    parse or ask for more than it holds (:func:`_check_bounds`); the
    objects the allowed globals build can still raise their own errors.
    """
    _check_bounds(payload)
    return _RestrictedUnpickler(io.BytesIO(payload)).load()


# -- task envelopes -----------------------------------------------------------


def function_name(fn: Callable) -> str:
    """The importable ``module.qualname`` identity of a task function."""
    return f"{fn.__module__}.{fn.__qualname__}"


def encode_task(fn: Callable, task: Any, trace: dict | None = None) -> dict:
    """A JSON-able envelope shipping one ``(fn, task)`` dispatch.

    The function travels by importable name (workers re-resolve it — code
    never crosses the wire), the task object as a base64 pickle.  When span
    tracing is active (or ``trace`` is passed explicitly), the submitter's
    span context rides along under ``"trace"`` so a remote worker can
    parent its execution span into the same trace tree.  The key is
    advisory: :func:`decode_task` ignores it, task *identity* digests
    :func:`synthesis_task_payload` (never the envelope), and pre-fabric
    workers see an unknown key they never read — so telemetry cannot
    change what executes or which acks replay.
    """
    payload = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "schema": WIRE_SCHEMA,
        "fn": function_name(fn),
        "task_pkl": base64.b64encode(payload).decode("ascii"),
    }
    if trace is None:
        # Imported lazily and narrowly: wire stays a leaf module, and the
        # context is only captured when a trace sink is actually configured.
        from repro.obs.trace import TRACER, current_context

        if TRACER.enabled:
            trace = current_context()
    if isinstance(trace, dict):
        trace_id, span_id = trace.get("trace"), trace.get("span")
        if isinstance(trace_id, str) and isinstance(span_id, str):
            envelope["trace"] = {"trace": trace_id, "span": span_id}
    return envelope


def trace_context(envelope: Any) -> dict | None:
    """The span context riding a task envelope, or None.

    Tolerant by design — envelopes from pre-telemetry submitters, or with
    a malformed ``"trace"`` value, simply yield no parent.
    """
    if not isinstance(envelope, dict):
        return None
    context = envelope.get("trace")
    if not isinstance(context, dict):
        return None
    trace_id, span_id = context.get("trace"), context.get("span")
    if isinstance(trace_id, str) and isinstance(span_id, str):
        return {"trace": trace_id, "span": span_id}
    return None


def decode_task(envelope: dict) -> tuple[str, Any]:
    """Inverse of :func:`encode_task`: ``(fn_name, task)``.

    Raises ``ValueError`` for envelopes from a *newer* schema or with a
    malformed body — a worker must reject what it cannot faithfully run.
    The body is unpickled through :func:`restricted_loads`, so a hostile
    envelope surfaces as a rejection, never as code execution, and any
    error the body raises becomes that ``ValueError``.
    """
    if not isinstance(envelope, dict):
        raise ValueError("task envelope must be a JSON object")
    schema = envelope.get("schema", 0)
    if not isinstance(schema, int) or schema > WIRE_SCHEMA:
        raise ValueError(
            f"task envelope schema {schema!r} is newer than this worker "
            f"(speaks <= {WIRE_SCHEMA})"
        )
    fn_name = envelope.get("fn")
    if not isinstance(fn_name, str) or "." not in fn_name:
        raise ValueError(f"task envelope has no importable fn ({fn_name!r})")
    try:
        task = restricted_loads(base64.b64decode(envelope["task_pkl"]))
    except Exception as exc:
        # Reconstructing the body runs allow-listed constructors on
        # untrusted arguments, so it can raise anything.
        raise ValueError(
            f"task envelope body is unreadable ({type(exc).__name__}: {exc})"
        ) from exc
    return fn_name, task


# -- result payloads ----------------------------------------------------------


def encode_result(result: Any) -> bytes:
    """Raw result bytes — exactly the PR 4 ``.ack.pkl`` format."""
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(payload: bytes) -> Any:
    """Inverse of :func:`encode_result`, via :func:`restricted_loads`.

    Ack bytes come back from brokers other processes write into, so the
    submitter applies the same allow-list the worker applies to tasks.
    Raises ``ValueError`` for a payload that does not decode: truncated,
    malformed, asking for more than it holds, or naming a global outside
    the allow-list.
    """
    try:
        return restricted_loads(payload)
    except Exception as exc:
        raise ValueError(
            f"result payload is unreadable ({type(exc).__name__}: {exc})"
        ) from exc


def encode_result_b64(payload: bytes) -> str:
    """Wrap raw result bytes for a JSON body (the HTTP broker's ack)."""
    return base64.b64encode(payload).decode("ascii")


def decode_result_b64(text: str) -> bytes:
    """Inverse of :func:`encode_result_b64`; raises ``ValueError``."""
    try:
        return base64.b64decode(text, validate=True)
    except (TypeError, binascii.Error) as exc:
        raise ValueError(f"result payload is not valid base64 ({exc})") from exc


# -- leases -------------------------------------------------------------------


def lease_body(
    pid: int,
    worker: str | None = None,
    host: str | None = None,
    deadline: float | None = None,
) -> str:
    """The lease file / lease record JSON text (schema-tagged)."""
    payload: dict[str, Any] = {"schema": WIRE_SCHEMA, "pid": int(pid)}
    if worker is not None:
        payload["worker"] = worker
    if host is not None:
        payload["host"] = host
    if deadline is not None:
        payload["deadline"] = float(deadline)
    return json.dumps(payload, sort_keys=True)


#: Largest process id a lease may name (``pid_t`` is a 32-bit int).
_PID_MAX = 2**31 - 1


def _pid(value: Any) -> int:
    """A lease's pid as an int, or 0 when it names no possible process."""
    try:
        pid = int(value)
    except (TypeError, ValueError, OverflowError):
        return 0
    return pid if 0 <= pid <= _PID_MAX else 0


def _deadline(value: Any) -> float | None:
    """A lease's deadline, or ``None`` when no clock will ever pass it."""
    try:
        deadline = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return deadline if math.isfinite(deadline) else None


def parse_lease(text: str) -> dict:
    """Tolerant lease parse: always a dict, never an exception.

    Returns ``{"pid": int, "worker": str | None, "host": str | None,
    "deadline": float | None}``.  A PR 4 lease (``{"pid": N}`` or a bare
    integer) parses with the new fields ``None``; truncated JSON, binary
    garbage or an empty file (a crash mid-write) parse to ``pid=0`` — a
    dead claim the reclaim sweep may break.  So does a pid no process can
    have (negative, past ``pid_t``, infinite or NaN).  A deadline that is
    not a finite number parses to ``None``, so the lease expires by its
    file's mtime instead of never.
    """
    dead = {"pid": 0, "worker": None, "host": None, "deadline": None}
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError):
        # Not JSON, an int past the digit limit, or nesting too deep.
        return {**dead, "pid": _pid(text)}
    if not isinstance(payload, dict):
        return {**dead, "pid": _pid(payload)}
    worker = payload.get("worker")
    host = payload.get("host")
    return {
        "pid": _pid(payload.get("pid", 0)),
        "worker": worker if isinstance(worker, str) else None,
        "host": host if isinstance(host, str) else None,
        "deadline": _deadline(payload.get("deadline")),
    }


# -- task identity ------------------------------------------------------------


def synthesis_task_payload(job: Any) -> dict:
    """Stable identity of one :class:`~repro.engine.scheduler.SynthesisJob`.

    The dict whose digest keys the job's broker acks.  **Byte-stability
    contract**: this must reproduce the PR 4 ``queue_payload`` exactly —
    changing a key or a default orphans every ack already on disk.
    ``"kind"`` doubles as the schema tag.

    The donor's ``wall_seconds`` cannot enter a content address because it
    is nondeterministic, so the donor collapses to its
    :func:`~repro.engine.persist.sizing_digest`.
    """
    from repro.engine.persist import sizing_digest

    return {
        "kind": "synthesis_job",
        "spec": job.spec,
        "tech": job.tech,
        "budget": job.budget,
        "seed": job.seed,
        "verify_transient": bool(job.verify_transient),
        "donor": None if job.donor is None else sizing_digest(job.donor),
        "retarget_budget": job.retarget_budget,
        "retarget_seed": job.retarget_seed,
    }


# -- result summaries (the service's ``result.json``) --------------------------


def topology_payload(result: Any) -> bytes:
    """Canonical JSON bytes for one :class:`TopologyResult`.

    Shared by the service (optimize-job ``result.json``) and by anyone
    serializing a direct :func:`~repro.flow.topology.optimize_topology`
    call — byte-identity between the two paths follows from sharing this
    serializer plus the flow's own determinism guarantees.
    """
    spec = result.spec
    return canonical_json(
        {
            "schema": WIRE_SCHEMA,
            "kind": "optimize",
            "spec": {
                "resolution_bits": spec.resolution_bits,
                "sample_rate_hz": spec.sample_rate_hz,
                "full_scale": spec.full_scale,
                "tech": spec.tech.name,
            },
            "winner": result.best.label,
            "rankings": [
                [e.label, e.total_power] for e in result.evaluations
            ],
            "all_feasible": all(e.all_feasible for e in result.evaluations),
            "unique_blocks": result.unique_blocks,
        }
    )


def campaign_payload(records: Iterable[Any]) -> bytes:
    """Canonical JSON summary for a finished campaign job."""
    return canonical_json(
        {
            "schema": WIRE_SCHEMA,
            "kind": "campaign",
            "scenarios": [
                {
                    "label": r.label,
                    "winner": r.winner,
                    "winner_power_w": r.winner_power_w,
                    "fom_j_per_step": r.fom_j_per_step,
                }
                for r in records
            ],
        }
    )


__all__ = [
    "WIRE_SCHEMA",
    "campaign_payload",
    "canonical_json",
    "decode_result",
    "decode_result_b64",
    "decode_task",
    "encode_result",
    "encode_result_b64",
    "encode_task",
    "function_name",
    "lease_body",
    "parse_lease",
    "restricted_loads",
    "synthesis_task_payload",
    "topology_payload",
    "trace_context",
]
