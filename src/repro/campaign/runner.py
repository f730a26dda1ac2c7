"""The campaign runner: one batch, many scenarios, shared synthesis state.

``run_campaign`` executes every scenario of a :class:`~repro.campaign.grid.CampaignGrid`
through :func:`~repro.flow.topology.optimize_topology` while sharing four
things across the whole batch that a naive per-spec loop would rebuild per
scenario:

* **one execution backend** — a process pool spins up once for the
  campaign, not once per grid point;
* **one synthesis ledger** (:class:`SynthesisLedger`) — an in-memory,
  fingerprint-keyed store of every block any scenario has synthesized, plus
  the campaign-wide warm-start donor pool.  A later scenario whose block
  poses the same problem as an earlier one's (the spec fields synthesis
  reads, :class:`~repro.specs.stage.MdacProblem`) loads that block instead
  of searching; a later scenario with a merely *similar* problem retargets
  from the nearest earlier design instead of synthesizing cold — the
  paper's retarget economy applied across system specs, not just within
  one;
* **one persistent cache directory** (``FlowConfig.cache_dir``) — the
  on-disk layer behind the ledger, so reuse also spans campaign invocations.
  It holds synthesized blocks and, under ``verdicts/``, behavioral verdicts;
* **one plan table** (:class:`~repro.specs.stage.PlanTable`) — a grid
  point's analytic screen, synthesis scenario and behavioral verdict read
  one stage plan per candidate, planned once per ``run_campaign`` call.

Scenarios execute strictly in expansion order (only the work *inside* a
scenario fans out over the backend), and every scenario's synthesis plan is
fixed before dispatch, so campaign records and reports are byte-identical
across backends — the PR 1 determinism guarantee lifted to batches.

Behavioral scenarios (``mode='behavioral'``) close the verification loop:
they look up the topology the same grid point's *synthesis* scenario
selected (or run an analytic screen when the grid has none), simulate it
under seeded Monte-Carlo mismatch (:mod:`repro.behavioral.verify`), and
record the simulated SNDR/ENOB/FoM next to the analytic numbers.  Their
draws derive entirely from ``FlowConfig.behavioral_seed``, which sits in
the manifest's config digest — so behavioral records obey the same
resume/shard/merge byte-identity contract as every other record.  With a
cache directory, a verdict simulated by an earlier run is loaded instead
of simulated again (:func:`~repro.behavioral.verify.cached_verdict`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.campaign.checkpoint import QUEUE_DIRNAME, CheckpointStore
from repro.campaign.grid import CampaignGrid, Scenario, shard_scenarios
from repro.campaign.manifest import (
    CampaignManifest,
    build_manifest,
    read_manifest,
    require_matching_manifest,
    write_manifest,
)
from repro.campaign.store import (
    META_FILENAME,
    REPORT_FILENAME,
    RESULTS_FILENAME,
    CampaignRecord,
    walden_fom,
    write_records,
)
from repro.behavioral.verify import cached_verdict
from repro.enumeration.candidates import enumerate_candidates
from repro.errors import CampaignInterrupted, SpecificationError
from repro.engine.backend import ExecutionBackend
from repro.engine.cancel import CancelToken
from repro.engine.config import FlowConfig
from repro.engine.persist import digest as persist_digest, sizing_digest
from repro.flow.cache import PersistentBlockCache
from repro.flow.topology import TopologyResult, optimize_topology
from repro.obs import metrics as obs
from repro.obs.trace import TRACE_DIRNAME, TRACE_ENV, configure_tracing, span
from repro.specs.stage import PlanTable
from repro.synth.result import SynthesisResult


@dataclass
class SynthesisLedger:
    """Campaign-wide synthesis state shared by every scenario.

    Three layers, consulted most-exact-first:

    * ``memory`` maps content fingerprints (see
      :func:`repro.engine.persist.block_fingerprint`) to results — a hit
      means this *search* (problem, budgets, seeds, donor chain) already
      ran;
    * ``by_spec`` maps problem digests (the spec's
      :class:`~repro.specs.stage.MdacProblem` + technology + verification
      flag) to results — a hit means a block *satisfying* the identical
      problem was already sized somewhere in the campaign, even if for
      another spec (its noise allocation, capacitor report or stage
      position may differ; synthesis reads none of them) or under
      different search hyper-parameters.  Only feasible designs enter this
      layer: an infeasible result never satisfied its problem, so serving
      it here would block legitimate re-searches (and defeat the
      scheduler's cold escalation).  This is the paper's block reuse
      applied campaign-wide: one search per electrical problem;
    * ``donors`` is the warm-start pool in admission order, deduplicated by
      sizing digest, seeding retargets for *similar* (not identical) specs.
      Donors are *scoped by technology*: a block sized under one process
      corner is meaningless as a warm start under another (the device
      models differ), so :meth:`donors_for` only hands out donors recorded
      under the requesting scenario's technology.  Corner scoping is also
      what makes corners *ledger-independent* — the property
      :func:`~repro.campaign.grid.shard_scenarios` relies on to split a
      multi-corner synthesis campaign across shards.

    A ledger outlives a single ``run_campaign`` call: pass the same
    instance to a follow-up campaign and it starts from everything the
    first one learned.
    """

    memory: dict[str, SynthesisResult] = field(default_factory=dict)
    by_spec: dict[str, SynthesisResult] = field(default_factory=dict)
    donors: list[SynthesisResult] = field(default_factory=list)
    _donor_digests: set[str] = field(default_factory=set)
    #: Per-donor technology scope, parallel to ``donors``.
    _donor_scopes: list[str] = field(default_factory=list)
    #: Blocks any scenario loaded from the ledger instead of searching.
    shared_hits: int = 0
    #: When set (the runner installs a fresh list per scenario while a
    #: checkpointing store is active), every ``record`` call is journalled
    #: as ``(fingerprint, spec_key, scope, result)`` so the scenario's
    #: ledger contribution can be checkpointed and replayed on resume.
    journal: list[tuple[str, str, str, SynthesisResult]] | None = field(
        default=None, repr=False, compare=False
    )

    def record(
        self,
        fingerprint: str,
        result: SynthesisResult,
        spec_key: str,
        scope: str,
    ) -> None:
        """Admit a resolved block into the ledger (idempotent per design).

        ``scope`` is the technology name the block was sized under; it
        gates which scenarios see the design as a warm-start donor (see
        :meth:`donors_for`).  The exact-hit layers need no scoping: both
        keys already digest the technology, so they can never serve a
        block across corners.
        """
        if self.journal is not None:
            self.journal.append((fingerprint, spec_key, scope, result))
        # The dedup metric counts designs the ledger already knew — the
        # campaign-wide reuse the paper's retarget economy buys.
        obs.counter(
            "ledger.dedup" if fingerprint in self.memory else "ledger.records"
        )
        self.memory.setdefault(fingerprint, result)
        if result.feasible:
            self.by_spec.setdefault(spec_key, result)
        digest = sizing_digest(result)
        if digest not in self._donor_digests:
            self._donor_digests.add(digest)
            self.donors.append(result)
            self._donor_scopes.append(scope)

    def donors_for(self, scope: str) -> tuple[SynthesisResult, ...]:
        """The warm-start pool visible to one technology scope.

        Admission order is preserved.
        """
        return tuple(
            donor
            for donor, donor_scope in zip(self.donors, self._donor_scopes)
            if donor_scope == scope
        )

    def replay(
        self, journal: Sequence[tuple[str, str, str, SynthesisResult]]
    ) -> None:
        """Re-apply a checkpointed journal, reconstructing ledger state.

        ``record`` is idempotent per design and journal entries preserve
        admission order, so replaying the journals of completed scenarios
        (in scenario order) leaves ``memory``/``by_spec``/``donors`` —
        donor *order and scopes* included — exactly as the original run
        left them.  Every entry is ``(fingerprint, spec_key, scope,
        result)``; :meth:`~repro.campaign.checkpoint.CheckpointStore.load`
        refuses a journal holding anything else.
        """
        for fingerprint, spec_key, scope, result in journal:
            self.record(fingerprint, result, spec_key, scope)


@dataclass
class LedgerBackedCache(PersistentBlockCache):
    """Per-scenario block cache wired into the campaign ledger.

    The in-memory reuse-key map stays scenario-local — reuse keys are only
    valid within one system spec — while the fingerprint layers are shared:
    lookups consult the ledger first, then the inherited persistent
    directory, and every admitted block (fresh or loaded) is recorded back
    into the ledger so later scenarios see it as an exact hit or a
    warm-start donor.  Unlike :class:`~repro.flow.cache.PersistentBlockCache`
    the disk tier is optional here: the ledger may be the only shared tier.
    """

    ledger: SynthesisLedger | None = None
    #: Blocks served from the campaign ledger (either layer).
    shared_hits: int = 0

    def __post_init__(self) -> None:
        # Relax the parent's cache_dir requirement (see class docstring).
        pass

    def _spec_key(self, spec: Any) -> str:
        """Digest identifying the block's *problem* (not the search)."""
        return persist_digest(
            {
                "problem": spec.problem,
                "tech": self.tech,
                "verify_transient": bool(self.verify_transient),
            }
        )

    def load_persistent(
        self, fingerprint: str, spec: Any = None
    ) -> SynthesisResult | None:
        if self.ledger is not None:
            hit = self.ledger.memory.get(fingerprint)
            if hit is None and spec is not None:
                hit = self.ledger.by_spec.get(self._spec_key(spec))
            if hit is not None:
                self.shared_hits += 1
                self.ledger.shared_hits += 1
                obs.counter("ledger.shared_hits")
                if spec is not None and hit.spec is not spec:
                    # The block may have been sized for another spec with
                    # the same problem.  Serve a copy that names the
                    # planned spec; the ledger's own object never changes.
                    hit = dataclasses.replace(hit, spec=spec)
                return hit
        if self.cache_dir is not None:
            return super().load_persistent(fingerprint, spec)
        return None

    def admit(
        self,
        key: tuple[int, int],
        result: SynthesisResult,
        fingerprint: str | None = None,
        newly_synthesized: bool = True,
    ) -> None:
        super().admit(key, result, fingerprint, newly_synthesized)
        if self.ledger is not None and fingerprint is not None:
            self.ledger.record(
                fingerprint,
                result,
                self._spec_key(result.spec),
                scope=self.tech.name,
            )

    def _persist(self, fingerprint: str, result: SynthesisResult) -> None:
        if self.cache_dir is not None:
            super()._persist(fingerprint, result)


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's full outcome: optimization result plus its record."""

    scenario: Scenario
    #: The ranked optimization outcome (in memory; not serialized).  ``None``
    #: when the scenario was replayed from a checkpoint on resume — the
    #: record survives an interruption, the in-memory object does not —
    #: and for behavioral scenarios, which verify a topology rather than
    #: rank one.
    topology: TopologyResult | None
    #: The deterministic JSONL record.
    record: CampaignRecord
    #: Wall time of this scenario [s] — nondeterministic, kept out of the record.
    wall_seconds: float
    #: True when this scenario was served from a checkpoint, not executed.
    replayed: bool = False


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one ``run_campaign`` call."""

    grid: CampaignGrid
    scenarios: tuple[ScenarioResult, ...]
    #: Backend name the campaign executed on.
    backend_name: str
    #: Total campaign wall time [s].
    wall_seconds: float
    #: (index, count) of the shard this run covered; (1, 1) when unsharded.
    shard: tuple[int, int] = (1, 1)
    #: The store identity written alongside the results (``None`` only for
    #: hand-assembled results; ``run_campaign`` always provides one).
    manifest: CampaignManifest | None = None
    #: Scenarios served from checkpoints instead of executing (resume).
    replayed_scenarios: int = 0

    @property
    def records(self) -> tuple[CampaignRecord, ...]:
        """Per-scenario records in expansion order."""
        return tuple(s.record for s in self.scenarios)

    @property
    def winners(self) -> dict[str, str]:
        """scenario label -> winning candidate label."""
        return {s.record.label: s.record.winner for s in self.scenarios}

    def topology_by_resolution(
        self,
        mode: str = "analytic",
        sample_rate_hz: float | None = None,
        corner: str | None = None,
    ) -> dict[int, TopologyResult]:
        """resolution -> TopologyResult for one (mode, rate, corner) slice.

        ``sample_rate_hz=None`` selects the grid's first rate axis value
        and ``corner=None`` its first corner — the common single-rate,
        nominal-corner case for figure regeneration.
        """
        if sample_rate_hz is None:
            sample_rate_hz = self.grid.sample_rates_hz[0]
        if corner is None:
            corner = self.grid.corners[0][0]
        return {
            s.scenario.spec.resolution_bits: s.topology
            for s in self.scenarios
            if s.topology is not None
            and s.scenario.mode == mode
            and s.scenario.spec.sample_rate_hz == sample_rate_hz
            and s.scenario.corner == corner
        }

    def report(self) -> str:
        """The campaign comparison report (see :mod:`repro.campaign.report`)."""
        from repro.campaign.report import comparison_report

        return comparison_report(self)

    def save(self, store_dir: str | Path) -> dict[str, Path]:
        """Write the results store into ``store_dir``.

        Produces ``results.jsonl`` (deterministic records), ``report.txt``
        (deterministic comparison report), ``manifest.json`` (the store's
        identity — grid/config digests and shard coverage, see
        :mod:`repro.campaign.manifest`) and ``meta.json`` (wall times and
        backend — the one nondeterministic artifact).  Returns the paths.
        """
        directory = Path(store_dir)
        directory.mkdir(parents=True, exist_ok=True)
        results_path = write_records(self.records, directory / RESULTS_FILENAME)
        report_path = directory / REPORT_FILENAME
        report_path.write_text(self.report() + "\n", encoding="utf-8")
        paths = {"results": results_path, "report": report_path}
        if self.manifest is not None:
            paths["manifest"] = write_manifest(self.manifest, directory)
        meta = {
            "backend": self.backend_name,
            "wall_seconds": self.wall_seconds,
            "replayed_scenarios": self.replayed_scenarios,
            "scenario_wall_seconds": {
                s.record.label: s.wall_seconds for s in self.scenarios
            },
        }
        meta_path = directory / META_FILENAME
        meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        paths["meta"] = meta_path
        return paths


def _make_record(
    scenario: Scenario, topology: TopologyResult, cache: LedgerBackedCache | None
) -> CampaignRecord:
    """Build the deterministic record for one completed scenario."""
    best = topology.best
    return CampaignRecord(
        label=scenario.label,
        index=scenario.index,
        resolution_bits=scenario.spec.resolution_bits,
        sample_rate_hz=scenario.spec.sample_rate_hz,
        full_scale=scenario.spec.full_scale,
        tech=scenario.spec.tech.name,
        corner=scenario.corner,
        mode=scenario.mode,
        winner=best.label,
        rankings=tuple((e.label, e.total_power) for e in topology.evaluations),
        fom_j_per_step=walden_fom(
            best.total_power,
            scenario.spec.resolution_bits,
            scenario.spec.sample_rate_hz,
        ),
        all_feasible=all(e.all_feasible for e in topology.evaluations),
        unique_blocks=topology.unique_blocks,
        cold_runs=cache.cold_runs if cache else 0,
        retargeted_runs=cache.retargeted_runs if cache else 0,
        shared_hits=cache.shared_hits if cache else 0,
        persistent_hits=cache.persistent_hits if cache else 0,
        pool_warm_starts=cache.pool_warm_starts if cache else 0,
        pool_escalations=cache.pool_escalations if cache else 0,
    )


def _winner_key(record_or_scenario: Any) -> tuple[int, float, str]:
    """Winner-map key: the (K, rate, corner) point a topology was picked for."""
    if isinstance(record_or_scenario, CampaignRecord):
        return (
            record_or_scenario.resolution_bits,
            record_or_scenario.sample_rate_hz,
            record_or_scenario.corner,
        )
    scenario = record_or_scenario
    return (
        scenario.spec.resolution_bits,
        scenario.spec.sample_rate_hz,
        scenario.corner,
    )


def _behavioral_record(
    scenario: Scenario,
    config: FlowConfig,
    backend: ExecutionBackend | None,
    synthesis_winners: dict[tuple[int, float, str], tuple[str, float]],
    plans: PlanTable,
) -> CampaignRecord:
    """Verify one grid point's chosen topology in the time domain.

    The topology under test comes from the campaign's own synthesis
    scenario for the same (K, rate, corner) point when the grid has one
    (``winner_source='synthesis'`` — the verification the paper's flow
    leaves open).  Standalone behavioral scenarios fall back to an
    analytic screen of the candidate space (``winner_source='analytic'``).
    Only *synthesis* winners populate the map — analytic screens re-run
    identically anywhere, so the fallback cannot diverge between sharded
    and unsharded executions of the same grid.
    """
    hit = synthesis_winners.get(_winner_key(scenario))
    if hit is not None:
        winner_label, winner_power = hit
        winner_source = "synthesis"
    else:
        screen = optimize_topology(
            scenario.spec,
            mode="analytic",
            config=config,
            backend=backend,
            plans=plans,
        )
        winner_label = screen.best.label
        winner_power = screen.best.total_power
        winner_source = "analytic"
    candidate = next(
        c
        for c in enumerate_candidates(scenario.spec.resolution_bits)
        if c.label == winner_label
    )
    verdict = cached_verdict(
        scenario.spec,
        candidate,
        draws=config.behavioral_draws,
        seed=config.behavioral_seed,
        cache_dir=config.cache_dir,
        plans=plans,
    )
    # Walden FoM at the *simulated* effective resolution: same power and
    # rate as the analytic FoM, but 2^ENOB instead of 2^K — the honest
    # energy-per-step the behavioral tier exists to report.
    fom_sim = winner_power / (
        2.0**verdict.enob_mean * scenario.spec.sample_rate_hz
    )
    behavioral = {
        "draws": verdict.draws,
        "seed": verdict.seed,
        "winner_source": winner_source,
        "samples": verdict.samples,
        "cycles": verdict.cycles,
        "sndr_db_mean": float(verdict.sndr_db_mean),
        "sndr_db_min": float(verdict.sndr_db_min),
        "enob_mean": float(verdict.enob_mean),
        "enob_min": float(verdict.enob_min),
        "fom_sim_j_per_step": float(fom_sim),
    }
    return CampaignRecord(
        label=scenario.label,
        index=scenario.index,
        resolution_bits=scenario.spec.resolution_bits,
        sample_rate_hz=scenario.spec.sample_rate_hz,
        full_scale=scenario.spec.full_scale,
        tech=scenario.spec.tech.name,
        corner=scenario.corner,
        mode=scenario.mode,
        winner=winner_label,
        rankings=((winner_label, winner_power),),
        fom_j_per_step=walden_fom(
            winner_power,
            scenario.spec.resolution_bits,
            scenario.spec.sample_rate_hz,
        ),
        all_feasible=True,
        unique_blocks=0,
        cold_runs=0,
        retargeted_runs=0,
        shared_hits=0,
        persistent_hits=0,
        pool_warm_starts=0,
        pool_escalations=0,
        behavioral=behavioral,
    )


def _snapshot_delta(baseline: dict, current: dict) -> dict:
    """``current`` minus ``baseline``: the campaign-window view.

    The registry is process-cumulative (a service scheduler runs many
    campaigns in one process), so the runner's *local* contribution to a
    store's ``metrics.json`` is the delta across the run.  Counters and
    histogram count/total subtract (zeroed entries drop out); gauges keep
    their current value; histogram min/max keep the cumulative extrema —
    the window's own extrema are not recoverable from two snapshots, and
    a widened bound is the honest approximation.
    """
    counters: dict[str, float] = {}
    base_counters = baseline.get("counters", {})
    for name, value in current.get("counters", {}).items():
        diff = value - base_counters.get(name, 0)
        if diff:
            counters[name] = diff
    histograms: dict[str, dict] = {}
    base_hists = baseline.get("histograms", {})
    for name, h in current.get("histograms", {}).items():
        prior = base_hists.get(name, {})
        count = h["count"] - prior.get("count", 0)
        if count <= 0:
            continue
        histograms[name] = {
            "count": count,
            "total": h["total"] - prior.get("total", 0.0),
            "min": h["min"],
            "max": h["max"],
        }
    return {
        "counters": counters,
        "gauges": dict(current.get("gauges", {})),
        "histograms": histograms,
    }


def _write_campaign_metrics(
    store_path: Path, backend: ExecutionBackend, baseline: dict
) -> Path:
    """Aggregate every telemetry channel into ``<store>/metrics.json``.

    Three sources fold into one snapshot (see docs/observability.md):

    * the runner's own live registry, as a delta over ``baseline`` — the
      snapshot taken when the campaign started — so a long-lived process
      (the job service) attributes to each store only what its campaign
      did (serial or queue execution, in-process broker workers, and
      everything the campaign layer itself counted);
    * spool files under ``<store>/metrics/`` — process-pool workers rewrite
      their cumulative snapshot after every job (the runner's own file is
      excluded: its live registry already covers it);
    * fleet census records — broker workers piggyback a registry snapshot
      on their census entry, so remote hosts' counters aggregate without
      any shared filesystem (same-process entries are skipped to avoid
      double counting an in-process worker).

    Like ``meta.json`` this artifact is nondeterministic (wall-clock
    histograms, fleet composition) and sits outside the byte-identity
    contract — the deterministic artifacts never mention it.
    """
    snapshots = [_snapshot_delta(baseline, obs.snapshot())]
    sources = {"local": 1, "spooled": 0, "fleet": 0}
    spool_dir = os.environ.get(obs.SPOOL_ENV)
    if spool_dir:
        spooled = obs.read_spool_snapshots(spool_dir, exclude_self=True)
        snapshots.extend(spooled)
        sources["spooled"] = len(spooled)
    workers_fn = getattr(getattr(backend, "broker", None), "workers", None)
    if callable(workers_fn):
        try:
            census = workers_fn()
        except Exception:
            census = []
        me = (socket.gethostname(), os.getpid())
        for record in census:
            if not isinstance(record, dict):
                continue
            snap = record.get("metrics")
            if not isinstance(snap, dict):
                continue
            if (record.get("host"), record.get("pid")) == me:
                continue
            snapshots.append(snap)
            sources["fleet"] += 1
    payload = {
        "schema": 1,
        "telemetry": obs.telemetry_mode(),
        "sources": sources,
        "metrics": obs.aggregate_snapshots(snapshots),
    }
    path = store_path / obs.METRICS_FILENAME
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def _forget_failures(queue_dir: Path) -> None:
    """Delete the failure records in a store's queue before a resume.

    A task whose ``.nack.json`` holds ``MAX_RETRIES`` failures is never
    leased again, so a resume would fail at once on the old record.
    Without it the task gets ``MAX_RETRIES`` fresh attempts.  Acks stay,
    so finished tasks still replay.
    """
    from repro.engine.broker import NACK_SUFFIX

    for path in queue_dir.glob(f"*{NACK_SUFFIX}"):
        path.unlink(missing_ok=True)


def run_campaign(
    grid: CampaignGrid,
    config: FlowConfig | None = None,
    ledger: SynthesisLedger | None = None,
    progress: Callable[[ScenarioResult], None] | None = None,
    *,
    store_dir: str | Path | None = None,
    resume: bool = False,
    shard: tuple[int, int] = (1, 1),
    cancel: CancelToken | None = None,
) -> CampaignResult:
    """Run every scenario of the grid (or of one shard of it) as one batch.

    ``config`` supplies the execution backend, synthesis budgets and the
    persistent cache directory shared by all scenarios.  ``ledger`` defaults
    to a fresh :class:`SynthesisLedger`; pass an existing one to chain
    campaigns.  ``progress`` (if given) is called with each
    :class:`ScenarioResult` as it completes — the CLI uses it for live
    status lines.

    ``store_dir`` switches on the checkpointing layer: a manifest
    identifying the campaign is written up front, every completed scenario
    commits a checkpoint (its record plus its ledger-journal — see
    :mod:`repro.campaign.checkpoint`), and the final store
    (``results.jsonl`` / ``report.txt`` / ``manifest.json`` / ``meta.json``)
    is saved on completion.  With ``resume=True`` an interrupted store's
    checkpointed scenarios replay byte-identically (records *and* their
    ledger contributions, so the remaining scenarios plan the same warm
    starts) instead of re-running; the manifest must match the requested
    campaign or the call refuses with a :class:`SpecificationError`.  A
    resume also forgets the failures recorded in the store's own queue
    directory, so a task that failed before is tried again.  Without
    ``resume``, stale checkpoints and queue state are cleared.

    ``shard=(k, n)`` runs only the k-th of n deterministic slices of the
    grid (see :func:`repro.campaign.grid.shard_scenarios`); the shard
    stores are fused back into the single-run store by
    :func:`repro.campaign.merge.merge_shards`.

    When the ``'queue'`` backend is selected without an explicit
    ``queue_dir``, its lease/ack directory is placed inside ``store_dir``
    so task-level completions also survive a kill.

    ``cancel`` (a :class:`~repro.engine.cancel.CancelToken`) is polled at
    scenario boundaries: a cancellation raises
    :class:`~repro.errors.CampaignInterrupted` *after* the last finished
    scenario committed its checkpoint, so an honoured cancellation is
    exactly as resumable as a kill — and loses no completed work.  The
    optimization service uses this for graceful drains.
    """
    if config is None:
        config = FlowConfig()
    if ledger is None:
        ledger = SynthesisLedger()
    if resume and store_dir is None:
        raise SpecificationError("resume=True requires store_dir")

    scenarios = shard_scenarios(grid.expand(), *shard)
    manifest = build_manifest(
        grid, config, shard, tuple(s.label for s in scenarios)
    )

    checkpoints: CheckpointStore | None = None
    completed: list = []
    if store_dir is not None:
        store_path = Path(store_dir)
        checkpoints = CheckpointStore(store_path)
        existing = read_manifest(store_path)
        if resume and existing is not None:
            require_matching_manifest(existing, manifest, store_path)
        if not resume:
            # A fresh run starts clean: stale checkpoints *and* stale queue
            # acks (which would otherwise replay results a previous code
            # version computed) are both discarded.
            checkpoints.clear()
            shutil.rmtree(store_path / QUEUE_DIRNAME, ignore_errors=True)
        write_manifest(manifest, store_path)
        if (
            config.backend in ("queue", "broker")
            and config.queue_dir is None
            and config.broker_url is None
        ):
            # Default the task directory into the store: queue acks (and a
            # directory broker's task files) then live and die with the
            # campaign they belong to.  A broker run pointed at a remote
            # HTTP broker (broker_url set) manages no local directory.
            config = dataclasses.replace(
                config, queue_dir=str(store_path / QUEUE_DIRNAME)
            )
        if resume:
            completed = checkpoints.completed_prefix(scenarios)
            _forget_failures(store_path / QUEUE_DIRNAME)

    # Telemetry is a pure execution knob (see FlowConfig.telemetry): it is
    # applied here — mode, trace sink, and the env vars pool workers
    # inherit — and fully unwound on exit, so one campaign's choice never
    # leaks into the next call or the surrounding process.
    telemetry = getattr(config, "telemetry", "metrics")
    previous_mode = obs.telemetry_mode()
    obs.set_mode(telemetry)
    metrics_baseline = obs.snapshot()
    saved_env: dict[str, str | None] = {}
    tracing_here = False
    if store_dir is not None and telemetry != "off":
        spool_dir = store_path / obs.METRICS_DIRNAME
        if not resume:
            shutil.rmtree(spool_dir, ignore_errors=True)
            shutil.rmtree(store_path / TRACE_DIRNAME, ignore_errors=True)
        saved_env[obs.SPOOL_ENV] = os.environ.get(obs.SPOOL_ENV)
        os.environ[obs.SPOOL_ENV] = str(spool_dir)
        if telemetry == "trace":
            trace_dir = store_path / TRACE_DIRNAME
            saved_env[TRACE_ENV] = os.environ.get(TRACE_ENV)
            os.environ[TRACE_ENV] = str(trace_dir)
            configure_tracing(trace_dir)
            tracing_here = True

    try:
        results: list[ScenarioResult] = []
        #: (K, rate, corner) -> (winner label, winner power) from this run's
        #: synthesis scenarios — live or replayed — feeding the behavioral
        #: tier the topology each synthesis point actually selected.
        synthesis_winners: dict[tuple[int, float, str], tuple[str, float]] = {}
        #: One plan per (spec, candidate) for this call's scenarios: the
        #: analytic screen, the synthesis scenario and the verdict key of a
        #: grid point read the same plan, and it dies with the call.
        plans = PlanTable()
        campaign_start = time.perf_counter()
        for scenario, record, journal in completed:
            ledger.replay(journal)
            obs.counter("campaign.scenarios_replayed")
            if record.mode == "synthesis":
                synthesis_winners[_winner_key(record)] = (
                    record.winner,
                    record.winner_power_w,
                )
            scenario_result = ScenarioResult(
                scenario=scenario,
                topology=None,
                record=record,
                wall_seconds=0.0,
                replayed=True,
            )
            results.append(scenario_result)
            if progress is not None:
                progress(scenario_result)

        backend = config.make_backend()
        try:
            with span(
                "campaign.run",
                scenarios=len(scenarios),
                shard=f"{shard[0]}/{shard[1]}",
                backend=backend.name,
            ):
                for scenario in scenarios[len(completed):]:
                    if cancel is not None and cancel.cancelled:
                        raise CampaignInterrupted(len(results), len(scenarios))
                    if checkpoints is not None:
                        ledger.journal = []
                    try:
                        cache: LedgerBackedCache | None = None
                        topology: TopologyResult | None = None
                        start = time.perf_counter()
                        with span(
                            "campaign.scenario",
                            label=scenario.label,
                            mode=scenario.mode,
                        ):
                            obs.counter("campaign.scenarios")
                            if scenario.mode == "behavioral":
                                record = _behavioral_record(
                                    scenario,
                                    config,
                                    backend,
                                    synthesis_winners,
                                    plans,
                                )
                            else:
                                if scenario.mode == "synthesis":
                                    cache = LedgerBackedCache(
                                        tech=scenario.spec.tech,
                                        budget=config.budget,
                                        retarget_budget=config.retarget_budget,
                                        seed=config.seed,
                                        retarget_seed=config.retarget_seed,
                                        verify_transient=config.verify_transient,
                                        donor_pool=ledger.donors_for(
                                            scenario.spec.tech.name
                                        ),
                                        ledger=ledger,
                                        cache_dir=config.cache_dir,
                                    )
                                topology = optimize_topology(
                                    scenario.spec,
                                    mode=scenario.mode,
                                    cache=cache,
                                    config=config,
                                    backend=backend,
                                    plans=plans,
                                )
                                record = _make_record(scenario, topology, cache)
                                if scenario.mode == "synthesis":
                                    synthesis_winners[_winner_key(scenario)] = (
                                        record.winner,
                                        record.winner_power_w,
                                    )
                        wall = time.perf_counter() - start
                        if checkpoints is not None:
                            checkpoints.write(scenario, record, ledger.journal or [])
                    finally:
                        ledger.journal = None
                    scenario_result = ScenarioResult(
                        scenario=scenario,
                        topology=topology,
                        record=record,
                        wall_seconds=wall,
                    )
                    results.append(scenario_result)
                    if progress is not None:
                        progress(scenario_result)
        finally:
            backend.close()

        campaign = CampaignResult(
            grid=grid,
            scenarios=tuple(results),
            backend_name=backend.name,
            wall_seconds=time.perf_counter() - campaign_start,
            shard=shard,
            manifest=manifest,
            replayed_scenarios=len(completed),
        )
        if store_dir is not None:
            campaign.save(store_dir)
            if telemetry != "off":
                try:
                    _write_campaign_metrics(store_path, backend, metrics_baseline)
                except Exception:
                    pass  # telemetry must never fail the campaign it observes
        return campaign
    finally:
        if tracing_here:
            configure_tracing(None)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        obs.set_mode(previous_mode)


__all__ = [
    "CampaignResult",
    "LedgerBackedCache",
    "ScenarioResult",
    "SynthesisLedger",
    "run_campaign",
]
