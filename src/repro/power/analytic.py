"""Equation-based candidate power evaluation (the paper's baseline style).

``candidate_power`` chains spec translation and the closed-form block power
models into a per-stage and total power figure for one candidate — no
simulation anywhere.  This is both the fast screening path of the hybrid
flow and the pure-equation baseline the benchmarks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.enumeration.candidates import PipelineCandidate
from repro.power.comparator import SubAdcPower, sub_adc_power
from repro.power.mdac import MdacPower, mdac_power
from repro.power.model import PowerModel, DEFAULT_POWER_MODEL
from repro.specs.adc import AdcSpec
from repro.specs.stage import StagePlan, plan_stages


@dataclass(frozen=True)
class StagePower:
    """Power of one pipeline stage: MDAC plus sub-ADC."""

    stage_index: int
    stage_bits: int
    mdac: MdacPower
    sub_adc: SubAdcPower

    @property
    def total_power(self) -> float:
        """Stage total [W]."""
        return self.mdac.total_power + self.sub_adc.total_power


@dataclass(frozen=True)
class CandidatePower:
    """Front-end power evaluation of one candidate configuration."""

    candidate: PipelineCandidate
    plan: StagePlan
    stages: tuple[StagePower, ...]

    @property
    def total_power(self) -> float:
        """Front-end total [W]."""
        return sum(s.total_power for s in self.stages)

    @property
    def mdac_power(self) -> float:
        """Sum of MDAC powers [W]."""
        return sum(s.mdac.total_power for s in self.stages)

    @property
    def sub_adc_power(self) -> float:
        """Sum of sub-ADC powers [W]."""
        return sum(s.sub_adc.total_power for s in self.stages)


def candidate_power(
    spec: AdcSpec,
    candidate: PipelineCandidate,
    model: PowerModel = DEFAULT_POWER_MODEL,
    plan: StagePlan | None = None,
) -> CandidatePower:
    """Evaluate one candidate's front-end power analytically."""
    if plan is None:
        plan = plan_stages(spec, candidate)
    stages = tuple(
        StagePower(
            stage_index=i,
            stage_bits=mdac.stage_bits,
            mdac=mdac_power(mdac, spec.tech, model),
            sub_adc=sub_adc_power(sub, model),
        )
        for i, (mdac, sub) in enumerate(zip(plan.mdacs, plan.sub_adcs))
    )
    return CandidatePower(candidate=candidate, plan=plan, stages=stages)
