"""Topology optimization: enumerate -> translate -> evaluate -> rank.

Every evaluation path now runs through the execution engine
(:mod:`repro.engine`): analytic screening fans candidates out over the
configured backend, and synthesis mode hands the deduplicated block
workload to the wave scheduler, which preserves the serial nearest-donor
warm-start semantics while letting independent blocks size in parallel.
The default :class:`~repro.engine.config.FlowConfig` keeps everything
serial and in-memory, so callers that never touch ``config`` see the same
behaviour (and bit-identical results) as before.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.backend import ExecutionBackend
from repro.engine.config import FlowConfig
from repro.engine.scheduler import execute_plan, plan_synthesis
from repro.enumeration.candidates import PipelineCandidate, enumerate_candidates
from repro.errors import SpecificationError
from repro.flow.cache import BlockCache
from repro.power.analytic import CandidatePower, candidate_power
from repro.power.comparator import sub_adc_power
from repro.power.model import PowerModel, DEFAULT_POWER_MODEL
from repro.specs.adc import AdcSpec
from repro.specs.stage import PlanTable, StagePlan


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate's evaluated power."""

    candidate: PipelineCandidate
    plan: StagePlan
    #: Per-stage total power [W] (MDAC + sub-ADC).
    stage_powers: tuple[float, ...]
    #: Per-stage MDAC-only power [W].
    mdac_powers: tuple[float, ...]
    #: Which path produced the MDAC numbers: 'analytic' or 'synthesis'.
    mode: str
    #: Whether every synthesized block met its constraints (True for analytic).
    all_feasible: bool

    @property
    def total_power(self) -> float:
        """Front-end total [W]."""
        return sum(self.stage_powers)

    @property
    def label(self) -> str:
        """Candidate label, e.g. '4-3-2'."""
        return self.candidate.label


@dataclass(frozen=True)
class TopologyResult:
    """Ranked outcome of one topology-optimization run."""

    spec: AdcSpec
    evaluations: tuple[CandidateEvaluation, ...]
    #: Unique MDAC blocks synthesized (0 in analytic mode).
    unique_blocks: int

    @property
    def best(self) -> CandidateEvaluation:
        """The minimum-power feasible candidate (the minimum-power one when
        no candidate is feasible)."""
        return self.evaluations[0]

    def power_table(self) -> list[tuple[str, float]]:
        """(label, total mW) rows, best first."""
        return [(e.label, e.total_power * 1e3) for e in self.evaluations]


@dataclass(frozen=True)
class _AnalyticTask:
    """Picklable per-candidate analytic evaluation unit."""

    plan: StagePlan
    model: PowerModel


def _evaluate_analytic(task: _AnalyticTask) -> CandidateEvaluation:
    """Analytic evaluation of one candidate — pool-dispatchable."""
    plan = task.plan
    cp: CandidatePower = candidate_power(plan.spec, plan.candidate, task.model, plan)
    return CandidateEvaluation(
        candidate=plan.candidate,
        plan=plan,
        stage_powers=tuple(s.total_power for s in cp.stages),
        mdac_powers=tuple(s.mdac.total_power for s in cp.stages),
        mode="analytic",
        all_feasible=True,
    )


def _evaluate_synthesis(
    plan: StagePlan,
    cache: BlockCache,
    model: PowerModel,
    spec: AdcSpec,
) -> CandidateEvaluation:
    """Assemble one candidate's evaluation from fully resolved blocks."""
    mdac_powers: list[float] = []
    stage_powers: list[float] = []
    feasible = True
    for mdac_spec, sub_spec in zip(plan.mdacs, plan.sub_adcs):
        block = cache.get(mdac_spec)
        feasible &= block.feasible
        mdac_w = block.power + model.fixed_overhead_w
        sub_w = sub_adc_power(sub_spec, model, vdd=spec.tech.vdd).total_power
        mdac_powers.append(mdac_w)
        stage_powers.append(mdac_w + sub_w)
    return CandidateEvaluation(
        candidate=plan.candidate,
        plan=plan,
        stage_powers=tuple(stage_powers),
        mdac_powers=tuple(mdac_powers),
        mode="synthesis",
        all_feasible=feasible,
    )


def optimize_topology(
    spec: AdcSpec,
    mode: str = "analytic",
    model: PowerModel = DEFAULT_POWER_MODEL,
    cache: BlockCache | None = None,
    candidates: list[PipelineCandidate] | None = None,
    config: FlowConfig | None = None,
    backend: ExecutionBackend | None = None,
    plans: PlanTable | None = None,
) -> TopologyResult:
    """Run the full designer-driven flow for one ADC spec.

    ``mode`` selects the MDAC evaluation path:

    * ``"analytic"`` — the fast equation-based screen (every candidate);
    * ``"synthesis"`` — transistor-level block synthesis with reuse via the
      :class:`BlockCache` (the paper's Fig. 1 flow).

    ``config`` selects the execution backend, synthesis budgets and the
    optional persistent block cache; an explicitly passed ``cache`` wins
    over ``config.make_cache`` (its budgets then drive the scheduler), and
    an explicitly passed ``backend`` is reused without being closed —
    callers sharing a pool across several runs own its lifecycle.
    ``plans`` is the campaign's :class:`~repro.specs.stage.PlanTable`, so
    the scenarios of one grid point plan each candidate once; without
    one, this call plans into a table of its own.

    Sub-ADC power always comes from the comparator model.  Candidates whose
    blocks all met their constraints rank first, each group ascending by
    total front-end power, so an infeasible design never outranks a
    feasible one.  Rankings are backend-independent: the wave
    scheduler fixes every warm start before dispatch, so serial and
    process-pool runs synthesize identical blocks.
    """
    if candidates is None:
        candidates = enumerate_candidates(spec.resolution_bits)
    if mode not in ("analytic", "synthesis"):
        raise SpecificationError(f"unknown mode {mode!r}")
    if config is None:
        config = FlowConfig()
    if plans is None:
        plans = PlanTable()
    stage_plans = [plans.plan(spec, cand) for cand in candidates]

    owns_backend = backend is None
    if backend is None:
        backend = config.make_backend()
    try:
        if mode == "analytic":
            tasks = [_AnalyticTask(plan, model) for plan in stage_plans]
            evaluations = backend.map(_evaluate_analytic, tasks)
        else:
            if cache is None:
                cache = config.make_cache(spec.tech)
            all_specs = [m for p in stage_plans for m in p.mdacs]
            synth_plan = plan_synthesis(
                all_specs, cache.results, donors=cache.donor_pool
            )
            execute_plan(synth_plan, cache, backend)
            evaluations = [
                _evaluate_synthesis(p, cache, model, spec) for p in stage_plans
            ]
    finally:
        if owns_backend:
            backend.close()

    # Designs are compared only among those that meet spec: feasible
    # candidates rank first, each group by power.
    evaluations.sort(key=lambda e: (not e.all_feasible, e.total_power))
    return TopologyResult(
        spec=spec,
        evaluations=tuple(evaluations),
        unique_blocks=cache.unique_blocks if cache else 0,
    )
