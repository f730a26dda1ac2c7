"""Job model and the content-addressed job store.

A *job* is one optimization request: either a whole campaign grid
(``kind="campaign"``) or a single-spec topology optimization
(``kind="optimize"``).  Requests arrive as JSON; :func:`parse_request`
validates the body, rebuilds the typed objects (grid, spec, config) and
assigns the job its **content key** — the digest that drives request
coalescing.

The key deliberately reuses the PR 4 manifest machinery: a campaign job's
key hashes :func:`~repro.campaign.manifest.grid_digest` and
:func:`~repro.campaign.manifest.config_digest`, an optimize job's key
hashes the spec, the mode and the same config digest.  Because the config
digest covers only *result-relevant* fields (budgets, seeds — the
behavioral Monte-Carlo seed and draw count included — and verification),
two requests that differ solely in execution knobs — backend, worker
count, telemetry — map to the same key and coalesce: the repo-wide
guarantee that results are byte-identical across those knobs is what makes
that safe.

The :class:`JobStore` persists both halves of a job:

* ``jobs/<key>.json`` — the :class:`JobRecord` (request, state, accounting),
  atomically rewritten at every state transition so a killed server
  recovers its queue;
* ``results/<key>/`` — the result artifacts.  Campaign jobs execute into
  ``results/<key>/store/``, a full checkpointed campaign store (the same
  files ``run_campaign(..., store_dir=...)`` writes, checkpoints included),
  which is what makes an interrupted job resumable and the served bytes
  identical to a direct run.  Every finished job also writes
  ``result.json`` — the canonical JSON summary — whose presence is the
  completion marker.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign.grid import CampaignGrid
from repro.campaign.manifest import MANIFEST_FILENAME, config_digest, grid_digest
from repro.campaign.store import (
    META_FILENAME,
    REPORT_FILENAME,
    RESULTS_FILENAME,
)
from repro.engine.backend import BACKENDS
from repro.engine.config import FlowConfig
from repro.engine.persist import atomic_write_bytes, digest
from repro.errors import SpecificationError
from repro.obs.metrics import METRICS_FILENAME, TELEMETRY_MODES
from repro.service.wire import campaign_payload, topology_payload
from repro.specs.adc import AdcSpec
from repro.tech.process import resolve_corner

#: Job kinds the service executes.
JOB_KINDS = ("campaign", "optimize")

#: Job lifecycle states (see docs/service.md).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Terminal job states (event streams close after one of these).  Lives
#: here rather than in the scheduler so the HTTP client never depends on
#: the scheduler/executor layer.  (Importing any ``repro`` submodule
#: still runs the package ``__init__``, which loads the flow stack —
#: this keeps the *layering* clean, not the interpreter footprint.)
TERMINAL_STATES = ("done", "failed", "cancelled")

#: FlowConfig fields a request may set.  ``cache_dir`` and ``queue_dir``
#: are host paths and ``broker_url`` is deployment topology — all three are
#: server policy, never client input (a ``backend: broker`` job is pointed
#: at the server's own directory broker by the scheduler).
CONFIG_FIELDS = (
    "backend",
    "max_workers",
    "budget",
    "retarget_budget",
    "seed",
    "retarget_seed",
    "verify_transient",
    "behavioral_draws",
    "behavioral_seed",
    "telemetry",
)

#: Config fields that must be JSON integers.
_INT_CONFIG_FIELDS = (
    "budget",
    "retarget_budget",
    "seed",
    "retarget_seed",
    "behavioral_draws",
    "behavioral_seed",
)

#: Subdirectory names inside the service store root.
JOBS_DIRNAME = "jobs"
RESULTS_DIRNAME = "results"

#: Canonical result-summary artifact (its presence marks completion).
RESULT_FILENAME = "result.json"

#: Characters of the key exposed as the short job id.
JOB_ID_LENGTH = 12


def _json_type(value: Any) -> str:
    """How a validation error names the JSON type it got."""
    if value is None:
        return "null"
    for cls, name in (
        (bool, "a boolean"),
        (int, "an integer"),
        (float, "a number"),
        (str, "a string"),
        (list, "an array"),
        (dict, "an object"),
    ):
        if isinstance(value, cls):
            return name
    return type(value).__name__


def _require(value: Any, cls: type, what: str, expected: str) -> Any:
    """``value`` when it is a ``cls`` (booleans are never integers)."""
    if isinstance(value, cls) and not (cls is int and isinstance(value, bool)):
        return value
    raise SpecificationError(f"{what} must be {expected}, not {_json_type(value)}")


def _number(value: Any, what: str) -> float:
    """``value`` as a float when it is a finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecificationError(
            f"{what} must be a number, not {_json_type(value)}"
        )
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SpecificationError(f"{what} must be a finite number")
    return number


def build_config(
    config_body: dict | None, cache_dir: str | None = None
) -> FlowConfig:
    """Build the job's :class:`FlowConfig` from the request's config dict.

    Unknown fields, unknown backend names and values of the wrong JSON
    type fail with a single-line :class:`SpecificationError`; ``cache_dir``
    is the *server's* persistent block-cache directory (clients cannot
    point the server at host paths).
    """
    body = {}
    if config_body is not None:
        body = dict(_require(config_body, dict, "config", "an object"))
    unknown = sorted(set(body) - set(CONFIG_FIELDS))
    if unknown:
        raise SpecificationError(
            f"unknown config field(s) {', '.join(unknown)} "
            f"(valid: {', '.join(CONFIG_FIELDS)})"
        )
    backend = body.get("backend", "serial")
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise SpecificationError(
            f"unknown execution backend {backend!r} "
            f"(valid: {', '.join(sorted(BACKENDS))})"
        )
    telemetry = body.get("telemetry", "metrics")
    if not isinstance(telemetry, str) or telemetry not in TELEMETRY_MODES:
        raise SpecificationError(
            f"unknown telemetry mode {telemetry!r} "
            f"(valid: {', '.join(TELEMETRY_MODES)})"
        )
    for name in _INT_CONFIG_FIELDS:
        if name in body:
            _require(body[name], int, f"config.{name}", "an integer")
    workers = body.get("max_workers")
    if workers is not None:
        _require(workers, int, "config.max_workers", "null or an integer")
        if workers < 1:
            raise SpecificationError("config.max_workers must be null or >= 1")
    if "verify_transient" in body:
        _require(body["verify_transient"], bool, "config.verify_transient", "a boolean")
    return FlowConfig(cache_dir=cache_dir, **body)


def build_grid(grid_body: dict) -> CampaignGrid:
    """Build a :class:`CampaignGrid` from a request's grid dict.

    Corners are given as registered tags (see
    :data:`repro.tech.process.CORNERS`) so requests stay pure JSON — the
    server resolves them to technologies.
    """
    if not isinstance(grid_body, dict) or "resolutions" not in grid_body:
        raise SpecificationError(
            "campaign request needs grid.resolutions (a list of bit widths)"
        )
    unknown = sorted(
        set(grid_body)
        - {"resolutions", "sample_rates_hz", "modes", "corners", "full_scale"}
    )
    if unknown:
        raise SpecificationError(
            f"unknown grid field(s) {', '.join(unknown)} (valid: resolutions, "
            "sample_rates_hz, modes, corners, full_scale)"
        )

    def axis(name: str, default: list) -> list:
        return _require(grid_body.get(name, default), list, f"grid.{name}", "an array")

    corners = tuple(
        (tag, resolve_corner(_require(tag, str, "grid.corners entry", "a string")))
        for tag in axis("corners", ["nom"])
    )
    return CampaignGrid(
        resolutions=tuple(
            _require(k, int, "grid.resolutions entry", "an integer")
            for k in axis("resolutions", [])
        ),
        sample_rates_hz=tuple(
            _number(r, "grid.sample_rates_hz entry")
            for r in axis("sample_rates_hz", [40e6])
        ),
        modes=tuple(
            _require(m, str, "grid.modes entry", "a string")
            for m in axis("modes", ["analytic"])
        ),
        corners=corners,
        full_scale=_number(grid_body.get("full_scale", 2.0), "grid.full_scale"),
    )


def build_spec(spec_body: dict) -> tuple[AdcSpec, str]:
    """Build an (AdcSpec, corner tag) pair from an optimize request."""
    if not isinstance(spec_body, dict) or "resolution_bits" not in spec_body:
        raise SpecificationError(
            "optimize request needs spec.resolution_bits (an int)"
        )
    unknown = sorted(
        set(spec_body)
        - {"resolution_bits", "sample_rate_hz", "full_scale", "corner"}
    )
    if unknown:
        raise SpecificationError(
            f"unknown spec field(s) {', '.join(unknown)} (valid: "
            "resolution_bits, sample_rate_hz, full_scale, corner)"
        )
    corner = _require(spec_body.get("corner", "nom"), str, "spec.corner", "a string")
    spec = AdcSpec(
        resolution_bits=_require(
            spec_body["resolution_bits"], int, "spec.resolution_bits", "an integer"
        ),
        sample_rate_hz=_number(
            spec_body.get("sample_rate_hz", 40e6), "spec.sample_rate_hz"
        ),
        full_scale=_number(spec_body.get("full_scale", 2.0), "spec.full_scale"),
        tech=resolve_corner(corner),
    )
    return spec, corner


@dataclass(frozen=True)
class JobRequest:
    """One validated submission: typed objects plus the content key."""

    kind: str
    #: Normalized request body (pure JSON; what the record persists).
    body: dict
    #: Content address — identical requests share it (coalescing).
    key: str
    priority: int = 0
    client: str = "anon"
    #: Scenario count (grid size for campaigns, 1 for optimize jobs) —
    #: computed at parse time so admission never re-expands the grid.
    total_scenarios: int = 1

    def grid(self) -> CampaignGrid:
        """The campaign grid (campaign jobs only)."""
        return build_grid(self.body["grid"])

    def spec(self) -> AdcSpec:
        """The system spec (optimize jobs only)."""
        return build_spec(self.body["spec"])[0]

    @property
    def mode(self) -> str:
        """Flow mode of an optimize job."""
        return self.body.get("mode", "analytic")

    def config(self, cache_dir: str | None = None) -> FlowConfig:
        """The job's FlowConfig (server-side cache policy applied)."""
        return build_config(self.body.get("config"), cache_dir=cache_dir)


def parse_request(body: Any) -> JobRequest:
    """Validate a submission body and assign its content key.

    Raises :class:`SpecificationError` with a single-line message for any
    malformed field — the server maps those to HTTP 400.
    """
    if not isinstance(body, dict):
        raise SpecificationError("request body must be a JSON object")
    kind = body.get("kind", "campaign")
    if kind not in JOB_KINDS:
        raise SpecificationError(
            f"unknown job kind {kind!r} (valid: {', '.join(JOB_KINDS)})"
        )
    priority = _require(body.get("priority", 0), int, "priority", "an integer")
    client = _require(body.get("client", "anon"), str, "client", "a string") or "anon"
    config = build_config(body.get("config"))

    total_scenarios = 1
    if kind == "campaign":
        grid = build_grid(body.get("grid"))
        total_scenarios = grid.size
        key = digest(
            {
                "kind": "campaign",
                "grid": grid_digest(grid),
                "config": config_digest(config),
            }
        )
        normalized = {
            "kind": kind,
            "grid": {
                "resolutions": list(grid.resolutions),
                "sample_rates_hz": list(grid.sample_rates_hz),
                "modes": list(grid.modes),
                "corners": [tag for tag, _ in grid.corners],
                "full_scale": grid.full_scale,
            },
            "config": dict(body.get("config") or {}),
        }
    else:
        spec, corner = build_spec(body.get("spec"))
        mode = body.get("mode", "analytic")
        if mode not in ("analytic", "synthesis"):
            raise SpecificationError(
                f"unknown flow mode {mode!r} (valid: analytic, synthesis)"
            )
        key = digest(
            {
                "kind": "optimize",
                "spec": spec,
                "mode": mode,
                "config": config_digest(config),
            }
        )
        normalized = {
            "kind": kind,
            "spec": {
                "resolution_bits": spec.resolution_bits,
                "sample_rate_hz": spec.sample_rate_hz,
                "full_scale": spec.full_scale,
                "corner": corner,
            },
            "mode": mode,
            "config": dict(body.get("config") or {}),
        }
    return JobRequest(
        kind=kind,
        body=normalized,
        key=key,
        priority=priority,
        client=client,
        total_scenarios=total_scenarios,
    )


@dataclass
class JobRecord:
    """Durable state of one job (one per content key)."""

    key: str
    kind: str
    #: Normalized request body — enough to re-execute the job.
    request: dict
    state: str = "queued"
    priority: int = 0
    #: Client tag of the *first* submission (fairness bucket).
    client: str = "anon"
    #: Submission order across the store (listing order).
    seq: int = 0
    #: Total submissions that mapped to this key (coalescing counter).
    submissions: int = 1
    #: Times this key actually computed (0 for never-run, 1 normally).
    executions: int = 0
    error: str | None = None
    #: Scenario progress (campaigns; 1/1 for optimize jobs).
    completed_scenarios: int = 0
    total_scenarios: int = 0
    #: Wall-clock bookkeeping (meta only — never in result artifacts).
    submitted_unix: float = field(default_factory=time.time)
    finished_unix: float | None = None

    @property
    def job_id(self) -> str:
        """Short id clients address the job by (key prefix)."""
        return self.key[:JOB_ID_LENGTH]

    def summary(self) -> dict:
        """The API's job object."""
        return {
            "id": self.job_id,
            "key": self.key,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "client": self.client,
            "submissions": self.submissions,
            "executions": self.executions,
            "completed_scenarios": self.completed_scenarios,
            "total_scenarios": self.total_scenarios,
            "error": self.error,
        }

    def to_json(self) -> bytes:
        payload = {
            "key": self.key,
            "kind": self.kind,
            "request": self.request,
            "state": self.state,
            "priority": self.priority,
            "client": self.client,
            "seq": self.seq,
            "submissions": self.submissions,
            "executions": self.executions,
            "error": self.error,
            "completed_scenarios": self.completed_scenarios,
            "total_scenarios": self.total_scenarios,
            "submitted_unix": self.submitted_unix,
            "finished_unix": self.finished_unix,
        }
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, text: str) -> "JobRecord":
        payload = json.loads(text)
        return cls(**payload)


# ``topology_payload`` / ``campaign_payload`` live in
# :mod:`repro.service.wire` (one wire module for every canonical
# serializer) and are re-exported here for compatibility.


class JobStore:
    """Durable job records + content-addressed result artifacts."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.jobs_dir = self.root / JOBS_DIRNAME
        self.results_dir = self.root / RESULTS_DIRNAME

    # -- records -------------------------------------------------------------

    def save(self, record: JobRecord) -> None:
        """Atomically persist one record (every state transition)."""
        atomic_write_bytes(self.jobs_dir / f"{record.key}.json", record.to_json())

    def load_all(self) -> list[JobRecord]:
        """All persisted records in submission (``seq``) order.

        Unreadable record files are skipped — a half-written record from a
        crash degrades to "job unknown", and the client simply resubmits
        (the content key makes that idempotent).
        """
        records: list[JobRecord] = []
        if not self.jobs_dir.is_dir():
            return records
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                records.append(JobRecord.from_json(path.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue
        records.sort(key=lambda r: r.seq)
        return records

    # -- results -------------------------------------------------------------

    def result_dir(self, key: str) -> Path:
        """Root of one job's result artifacts."""
        return self.results_dir / key

    def campaign_store_dir(self, key: str) -> Path:
        """The checkpointed campaign store a campaign job executes into."""
        return self.result_dir(key) / "store"

    def write_result(self, key: str, payload: bytes) -> Path:
        """Commit the canonical summary — the completion marker."""
        return atomic_write_bytes(self.result_dir(key) / RESULT_FILENAME, payload)

    def result_ready(self, key: str) -> bool:
        """Whether the job's result artifacts are complete on disk."""
        return (self.result_dir(key) / RESULT_FILENAME).is_file()

    def read_result(self, key: str) -> bytes | None:
        """The canonical summary bytes, or ``None`` before completion."""
        try:
            return (self.result_dir(key) / RESULT_FILENAME).read_bytes()
        except OSError:
            return None

    def artifacts(self, key: str) -> dict[str, Path]:
        """Servable artifact name -> path map (existing files only).

        Names are a fixed whitelist — artifact requests can never traverse
        outside the result directory.
        """
        result_dir = self.result_dir(key)
        store = self.campaign_store_dir(key)
        candidates = {
            RESULT_FILENAME: result_dir / RESULT_FILENAME,
            RESULTS_FILENAME: store / RESULTS_FILENAME,
            REPORT_FILENAME: store / REPORT_FILENAME,
            MANIFEST_FILENAME: store / MANIFEST_FILENAME,
            META_FILENAME: store / META_FILENAME,
            METRICS_FILENAME: store / METRICS_FILENAME,
        }
        return {name: path for name, path in candidates.items() if path.is_file()}


__all__ = [
    "CONFIG_FIELDS",
    "JOB_KINDS",
    "JOB_STATES",
    "RESULT_FILENAME",
    "TERMINAL_STATES",
    "JobRecord",
    "JobRequest",
    "JobStore",
    "build_config",
    "build_grid",
    "build_spec",
    "campaign_payload",
    "parse_request",
    "topology_payload",
]
