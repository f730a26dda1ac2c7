"""Deduplicated, wave-ordered scheduling of MDAC block synthesis.

The paper's economy argument is that block reuse collapses the synthesis
workload: the seven 13-bit candidates need 27 stage instances but only 12
distinct MDAC specs (reuse keys).  Across system specs the reuse goes one
step further: the 33 blocks a K = 10..13 Fig. 2 campaign plans pose only
21 distinct problems (:class:`~repro.specs.stage.MdacProblem`, the spec
fields synthesis reads).  Block fingerprints digest the problem, and the
campaign ledger serves a feasible block it holds for a problem instead of
searching that problem again.  The flow used to realize this with an inline
``cache.get`` loop — correct, but strictly serial and invisible to any
executor.  This module lifts that loop into an explicit two-phase form:

1. :func:`plan_synthesis` collects every :class:`~repro.specs.stage.MdacSpec`
   across all candidates, dedupes them by ``reuse_key`` in first-encounter
   order, assigns each new block its warm-start donor (the nearest
   already-planned block by relative gm distance — exactly the nearest-donor
   rule ``BlockCache`` applies serially), and topologically layers the
   resulting donor tree into *waves*: wave 0 holds cold syntheses and blocks
   donated by pre-existing cache entries, wave ``n+1`` holds retargets whose
   donor resolves in wave ``n``.
2. :func:`execute_plan` walks the waves in order and dispatches each wave's
   jobs through an :class:`~repro.engine.backend.ExecutionBackend` — blocks
   within a wave are independent, so they size in parallel.  Before
   dispatching, each block is offered to the cache's persistent layer by
   content fingerprint; hits skip synthesis entirely.

Because the plan (donor assignment, budgets, seeds) is fixed before any
execution happens, a parallel run synthesizes exactly the blocks a serial
run would, from exactly the same warm starts — so candidate rankings are
backend-independent.

Plans can additionally carry an *external donor pool* — already-sized
blocks from other system specs (a campaign's earlier scenarios).  Pool
donors seed wave-0 retargets but never satisfy a reuse key, and a
pool-donated block whose warm-started search misses feasibility is
re-synthesized cold in the same wave (deterministic escalation), so batch
reuse can only add feasibility, never remove it.  See
:mod:`repro.campaign.runner` and ``docs/engine.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.engine.backend import ExecutionBackend
from repro.engine.persist import block_fingerprint, sizing_digest
from repro.obs import metrics
from repro.obs.trace import span
from repro.specs.stage import MdacSpec
from repro.synth.result import SynthesisResult
from repro.synth.retarget import retarget_mdac
from repro.synth.synthesis import synthesize_mdac
from repro.tech.process import Technology

if TYPE_CHECKING:  # avoid an engine -> flow import at runtime
    from repro.flow.cache import BlockCache

#: reuse_key type alias: (stage_bits, input_accuracy_bits).
ReuseKey = tuple[int, int]


@dataclass(frozen=True)
class PlanNode:
    """One block to synthesize: its spec plus its planned warm start."""

    #: Position in the plan (first-encounter order across candidates).
    index: int
    key: ReuseKey
    spec: MdacSpec
    #: Index of the donor node within this plan, for in-plan retargets.
    donor_index: int | None
    #: Reuse key of a pre-existing cache entry acting as donor, if any.
    donor_existing: ReuseKey | None
    #: Topological layer: every donor lives in a strictly earlier wave.
    wave: int
    #: Index into :attr:`SynthesisPlan.donors` when the warm start comes
    #: from an external donor pool (e.g. blocks synthesized by earlier
    #: scenarios of a campaign), ``None`` otherwise.
    donor_pool_index: int | None = None

    @property
    def is_cold(self) -> bool:
        """True when the block synthesizes without a warm start."""
        return (
            self.donor_index is None
            and self.donor_existing is None
            and self.donor_pool_index is None
        )


@dataclass(frozen=True)
class SynthesisPlan:
    """The full deduplicated schedule for one optimization run."""

    nodes: tuple[PlanNode, ...]
    #: Node indices grouped by wave, wave 0 first.
    waves: tuple[tuple[int, ...], ...]
    #: Total stage instances the nodes cover (before deduplication).
    total_instances: int
    #: External warm-start donors referenced by ``donor_pool_index``.  These
    #: never satisfy a reuse key — they only seed retargets — so a plan with
    #: donors still synthesizes every unique spec it was handed.
    donors: tuple[SynthesisResult, ...] = ()

    @property
    def unique_blocks(self) -> int:
        """Distinct MDAC specs this plan synthesizes."""
        return len(self.nodes)

    @property
    def max_wave_width(self) -> int:
        """Largest number of independent syntheses in any wave."""
        return max((len(w) for w in self.waves), default=0)

    @property
    def pool_donated(self) -> int:
        """Blocks warm-started from the external donor pool."""
        return sum(1 for n in self.nodes if n.donor_pool_index is not None)


@dataclass(frozen=True)
class SynthesisJob:
    """A picklable unit of work for one backend dispatch."""

    spec: MdacSpec
    tech: Technology
    budget: int
    seed: int
    verify_transient: bool
    #: Resolved donor design for retargets; ``None`` synthesizes cold.
    donor: SynthesisResult | None = None
    retarget_budget: int = 80
    retarget_seed: int = 7

    def queue_payload(self) -> dict[str, Any]:
        """Stable identity for the work-queue/broker ack files.

        Delegates to :func:`repro.service.wire.synthesis_task_payload`, the
        one wire module — see its docstring for the byte-stability contract
        (which fields are excluded and why).  Imported lazily because this
        module loads with the ``repro`` package and wire is a service-layer
        leaf.
        """
        from repro.service.wire import synthesis_task_payload

        return synthesis_task_payload(self)


def run_synthesis_job(job: SynthesisJob) -> SynthesisResult:
    """Execute one job — the process-pool entry point.

    Module-level so :class:`~repro.engine.backend.ProcessPoolBackend` can
    pickle a reference to it.
    """
    start = time.perf_counter()
    with span(
        "synth.job",
        stage_bits=job.spec.stage_bits,
        accuracy_bits=job.spec.input_accuracy_bits,
        retarget=job.donor is not None,
    ):
        metrics.counter("scheduler.job_executions")
        if job.donor is None:
            result = synthesize_mdac(
                job.spec,
                job.tech,
                budget=job.budget,
                seed=job.seed,
                verify_transient=job.verify_transient,
            )
        else:
            result = retarget_mdac(
                job.donor,
                job.spec,
                job.tech,
                budget=job.retarget_budget,
                seed=job.retarget_seed,
                verify_transient=job.verify_transient,
            )
    metrics.observe(
        "scheduler.job_seconds" if job.donor is None else "scheduler.retarget_seconds",
        time.perf_counter() - start,
    )
    # Pool workers accumulate metrics in their own process; rewriting the
    # cumulative spool snapshot after every job is what lets the campaign
    # runner fold worker-side counters into the store's metrics.json.
    metrics.write_spool_snapshot()
    return result


def _relative_gm_distance(donor_spec: MdacSpec, target: MdacSpec) -> float:
    """The nearest-donor metric ``BlockCache`` uses, spec-to-spec."""
    return abs(donor_spec.gm_required - target.gm_required) / target.gm_required


def plan_synthesis(
    specs: Sequence[MdacSpec],
    existing: Mapping[ReuseKey, SynthesisResult] | None = None,
    donors: Sequence[SynthesisResult] = (),
) -> SynthesisPlan:
    """Build the deduplicated wave schedule for a batch of stage specs.

    ``specs`` is every MDAC spec of every candidate, in candidate order —
    the exact sequence the legacy serial loop would feed ``cache.get``.
    ``existing`` holds results already in the cache; their specs join the
    donor pool at depth 0 and are never re-synthesized.  ``donors`` is an
    *external* donor pool — already-sized blocks from outside this run
    (typically earlier scenarios of a campaign) that may warm-start new
    blocks but never satisfy a reuse key: unlike ``existing`` entries they
    are not valid results for this run's specs, only good starting points.

    Donor assignment replays the serial semantics: the i-th *new* block's
    donor is the nearest (by relative gm distance) among the external pool,
    all pre-existing results, and the new blocks planned before it, in that
    order — including tie-breaks, since ``min`` keeps the first minimum in
    both code paths.  With an empty ``donors`` sequence the plan is
    identical to the pre-campaign scheduler's.
    """
    existing = existing or {}
    donor_pool = tuple(donors)

    unique: list[MdacSpec] = []
    seen: set[ReuseKey] = set(existing)
    for spec in specs:
        if spec.reuse_key not in seen:
            seen.add(spec.reuse_key)
            unique.append(spec)

    # Donor candidates in fixed scan order: the external pool first (oldest
    # blocks first), then existing cache entries (dict order is insertion
    # order), then planned nodes by index.
    existing_pool: list[tuple[ReuseKey, MdacSpec]] = [
        (key, result.spec) for key, result in existing.items()
    ]

    nodes: list[PlanNode] = []
    waves: dict[int, list[int]] = {}
    for i, spec in enumerate(unique):
        donor_index: int | None = None
        donor_existing: ReuseKey | None = None
        donor_pool_index: int | None = None
        best_distance: float | None = None
        for p, donor_result in enumerate(donor_pool):
            d = _relative_gm_distance(donor_result.spec, spec)
            if best_distance is None or d < best_distance:
                best_distance = d
                donor_pool_index, donor_existing, donor_index = p, None, None
        for key, donor_spec in existing_pool:
            d = _relative_gm_distance(donor_spec, spec)
            if best_distance is None or d < best_distance:
                best_distance = d
                donor_pool_index, donor_existing, donor_index = None, key, None
        for j in range(i):
            d = _relative_gm_distance(nodes[j].spec, spec)
            if best_distance is None or d < best_distance:
                best_distance = d
                donor_pool_index, donor_existing, donor_index = None, None, j

        wave = 0 if donor_index is None else nodes[donor_index].wave + 1
        node = PlanNode(
            index=i,
            key=spec.reuse_key,
            spec=spec,
            donor_index=donor_index,
            donor_existing=donor_existing,
            wave=wave,
            donor_pool_index=donor_pool_index,
        )
        nodes.append(node)
        waves.setdefault(wave, []).append(i)

    ordered_waves = tuple(
        tuple(waves[w]) for w in sorted(waves)
    )
    return SynthesisPlan(
        nodes=tuple(nodes),
        waves=ordered_waves,
        total_instances=len(specs),
        donors=donor_pool,
    )


def execute_plan(
    plan: SynthesisPlan,
    cache: "BlockCache",
    backend: ExecutionBackend,
) -> dict[ReuseKey, SynthesisResult]:
    """Resolve every planned block, wave by wave, through the backend.

    Each block is first offered to the cache's persistent layer (a no-op
    for the in-memory :class:`~repro.flow.cache.BlockCache`); remaining
    blocks of the wave dispatch together.  Results are admitted into the
    cache with the usual cold/retargeted accounting, and the full
    ``reuse_key -> result`` map is returned.
    """
    resolved: dict[int, SynthesisResult] = {}

    def donor_result(node: PlanNode) -> SynthesisResult | None:
        if node.donor_index is not None:
            return resolved[node.donor_index]
        if node.donor_existing is not None:
            return cache.results[node.donor_existing]
        if node.donor_pool_index is not None:
            return plan.donors[node.donor_pool_index]
        return None

    def cold_fingerprint(node: PlanNode) -> str:
        return block_fingerprint(
            node.spec,
            cache.tech,
            budget=cache.budget,
            seed=cache.seed,
            verify_transient=cache.verify_transient,
        )

    def cold_job(node: PlanNode) -> SynthesisJob:
        return SynthesisJob(
            spec=node.spec,
            tech=cache.tech,
            budget=cache.budget,
            seed=cache.seed,
            verify_transient=cache.verify_transient,
        )

    def run_wave(wave: Sequence[int]) -> None:
        pending: list[PlanNode] = []
        jobs: list[SynthesisJob] = []
        fingerprints: dict[int, str] = {}
        #: Node indices already forced onto the cold path by a cached
        #: failed warm attempt (no fresh escalation check needed).
        pre_escalated: set[int] = set()
        #: Positions in ``pending`` whose final result came from the cache
        #: rather than a fresh search (admitted without effort counting).
        loaded: set[int] = set()
        for index in wave:
            node = plan.nodes[index]
            donor = donor_result(node)
            fingerprint = block_fingerprint(
                node.spec,
                cache.tech,
                budget=cache.budget,
                seed=cache.seed,
                verify_transient=cache.verify_transient,
                donor=donor,
                retarget_budget=cache.retarget_budget,
                retarget_seed=cache.retarget_seed,
            )
            fingerprints[index] = fingerprint
            hit = cache.load_persistent(fingerprint, spec=node.spec)
            if (
                hit is not None
                and node.donor_pool_index is not None
                and not hit.feasible
            ):
                # A previous run already proved this pool warm start misses
                # feasibility (the failed attempt is persisted below), so
                # escalate straight to the cold path without re-running the
                # retarget search.  No search is discarded here, so
                # ``pool_escalations`` (a count of discarded retargets) is
                # not incremented.
                fingerprints[index] = cold_fingerprint(node)
                hit = cache.load_persistent(fingerprints[index], spec=node.spec)
                if hit is None:
                    pending.append(node)
                    jobs.append(cold_job(node))
                    pre_escalated.add(index)
                    continue
            if hit is not None:
                resolved[index] = hit
                cache.admit(
                    node.key, hit, fingerprints[index], newly_synthesized=False
                )
                continue
            pending.append(node)
            if node.donor_pool_index is not None and index not in pre_escalated:
                cache.pool_warm_starts += 1
            jobs.append(
                SynthesisJob(
                    spec=node.spec,
                    tech=cache.tech,
                    budget=cache.budget,
                    seed=cache.seed,
                    verify_transient=cache.verify_transient,
                    donor=donor,
                    retarget_budget=cache.retarget_budget,
                    retarget_seed=cache.retarget_seed,
                )
            )
        if jobs:
            metrics.counter("scheduler.jobs_dispatched", len(jobs))
            metrics.observe("scheduler.wave_width", len(jobs))
            results = backend.map(run_synthesis_job, jobs)
            # Feasibility escalation, pool-donated nodes only: a warm start
            # from another system spec's design is a heuristic — when the
            # lean retarget budget fails to reach feasibility, fall back to
            # the cold synthesis a standalone run would have done.  The
            # check depends only on the (deterministic) result, so every
            # backend escalates the same nodes.  In-plan and existing-entry
            # donors keep the legacy no-escalation semantics.
            escalate = [
                i
                for i, (node, result) in enumerate(zip(pending, results))
                if node.donor_pool_index is not None
                and node.index not in pre_escalated
                and not result.feasible
            ]
            if escalate:
                # Persist the failed warm attempts under their planned
                # fingerprints so reruns skip the doomed retarget search
                # (the scan above recognizes them and goes straight cold).
                for i in escalate:
                    cache._persist(fingerprints[pending[i].index], results[i])
                cold_dispatch: list[int] = []
                for i in escalate:
                    node = pending[i]
                    fingerprints[node.index] = cold_fingerprint(node)
                    cache.pool_escalations += 1
                    metrics.counter("scheduler.pool_escalations")
                    cold_hit = cache.load_persistent(
                        fingerprints[node.index], spec=node.spec
                    )
                    if cold_hit is not None:
                        results[i] = cold_hit
                        loaded.add(i)
                    else:
                        cold_dispatch.append(i)
                if cold_dispatch:
                    cold_results = backend.map(
                        run_synthesis_job,
                        [cold_job(pending[i]) for i in cold_dispatch],
                    )
                    for i, cold in zip(cold_dispatch, cold_results):
                        results[i] = cold
            for i, (node, result) in enumerate(zip(pending, results)):
                resolved[node.index] = result
                cache.admit(
                    node.key,
                    result,
                    fingerprints[node.index],
                    newly_synthesized=i not in loaded,
                )

    for wave_number, wave in enumerate(plan.waves):
        with span("synth.wave", wave=wave_number, nodes=len(wave)):
            metrics.counter("scheduler.waves")
            run_wave(wave)

    return {plan.nodes[i].key: result for i, result in resolved.items()}


__all__ = [
    "PlanNode",
    "SynthesisPlan",
    "SynthesisJob",
    "plan_synthesis",
    "execute_plan",
    "run_synthesis_job",
    "sizing_digest",
]
