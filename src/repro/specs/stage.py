"""Per-stage block specifications derived from the system spec.

For every enumerated front-end stage this module derives the MDAC's
electrical requirements — the translation step the paper describes as
"The MDAC block-level specifications can be translated from the ADC
system-level specifications and the value m_i for the enumerated candidate":

* interstage gain ``G = 2^(m-1)`` and capacitor network (sampling cap from
  the noise/matching/floor analysis, ``Cf = C_total / G``);
* feedback factor ``beta = Cf / (C_total + C_in)`` including an opamp
  input-capacitance estimate;
* effective amplification load ``C_eff = C_load + (1 - beta) * Cf``;
* settling: ``N_tau = ln(1/eps)`` time constants within the linear portion
  of the settling window, hence the required transconductance
  ``gm = N_tau * C_eff / (beta * t_lin)`` and unity-gain bandwidth;
* slew-rate current floor ``I >= C_eff * dV / t_slew``;
* minimum DC gain ``A0 >= 2 / (eps * beta)`` so the static gain error stays
  below half the settling error;
* sub-ADC comparator count ``2^m - 2`` and the offset tolerance implied by
  the redundancy range.

Two stages with equal ``(m, input_accuracy_bits)`` under the same system
spec receive identical block specs — that is the reuse that lets eleven-odd
MDAC syntheses cover all seven 13-bit candidates.

Block synthesis reads only part of a spec: the 13 fields of its
:class:`MdacProblem` (gain, feedback, loads, bandwidth, DC gain, settling
and swing).  The noise allocation, the capacitor sizing report, the stage
position, the accuracy bits and the slew current serve the reuse key,
the analytic power model and the reports.  Specs of different system
specs often share a problem (they differ only in noise allocation or
position), and then they get one block: the block cache and the campaign
ledger key blocks on the problem (:mod:`repro.engine.persist`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError
from repro.specs.adc import AdcSpec
from repro.specs.caps import CapacitorSizing, size_sampling_capacitor
from repro.specs.noise_budget import NoiseBudget, allocate_noise_budget

#: Opamp input capacitance as a fraction of the stage's total sampling cap.
OPAMP_INPUT_CAP_RATIO = 0.20

#: Comparator input capacitance presented to the previous stage [F].
COMPARATOR_INPUT_CAP = 15e-15

#: Extra margin on the settling error: eps = 2^-(output_accuracy + 1).
SETTLING_MARGIN_BITS = 1


@dataclass(frozen=True)
class SubAdcSpec:
    """Requirements of one stage's flash sub-ADC."""

    #: Stage raw resolution m (bits, including redundancy).
    stage_bits: int
    #: Number of comparators: 2^m - 2.
    comparator_count: int
    #: Largest tolerable comparator offset+threshold error [V].
    offset_tolerance: float
    #: Decision rate [Hz].
    sample_rate_hz: float
    #: Capacitive load presented to the driving stage [F].
    input_capacitance: float
    #: True for the first pipeline stage, whose sub-ADC sees the held S/H
    #: output for a full phase.  Later sub-ADCs must resolve the previous
    #: stage's late-settling residue inside the non-overlap window, which
    #: requires static tracking preamps whose cost grows with 2^m (the
    #: redundancy margin that would otherwise hide an early decision shrinks
    #: as 2^-m).
    is_first_stage: bool


@dataclass(frozen=True)
class MdacProblem:
    """The electrical problem block synthesis solves for one MDAC.

    Exactly the :class:`MdacSpec` fields that the design space, the
    evaluator, the settling bench and retargeting read, under the same
    names and units.  Two specs with equal problems get one block.
    """

    gain: int
    beta: float
    cf: float
    c_load: float
    c_eff: float
    gm_required: float
    gbw_hz: float
    closed_loop_bw_hz: float
    dc_gain_min: float
    settling_error: float
    linear_settling_time: float
    slew_time: float
    output_swing: float


#: The :class:`MdacSpec` fields that make up its :class:`MdacProblem`.
PROBLEM_FIELDS = tuple(f.name for f in fields(MdacProblem))


@dataclass(frozen=True)
class MdacSpec:
    """Electrical requirements of one MDAC (multiplying DAC) stage."""

    #: Stage position in the candidate (0-based).
    stage_index: int
    #: Raw stage resolution m (bits, including redundancy).
    stage_bits: int
    #: Residue gain 2^(m-1).
    gain: int
    #: Accuracy carried by the stage input [bits].
    input_accuracy_bits: int
    #: Accuracy required of the output residue [bits].
    output_accuracy_bits: int
    #: Allowed relative settling error at the output.
    settling_error: float
    #: Linear settling time available [s].
    linear_settling_time: float
    #: Slewing time available [s].
    slew_time: float
    #: Capacitor sizing outcome for the sampling network.
    caps: CapacitorSizing
    #: Feedback capacitor [F].
    cf: float
    #: Feedback factor during amplification.
    beta: float
    #: Fixed load during amplification (next stage + sub-ADC + parasitics) [F].
    c_load: float
    #: Effective total load the opamp must drive [F].
    c_eff: float
    #: Required transconductance [S].
    gm_required: float
    #: Required closed-loop -3dB bandwidth [Hz].
    closed_loop_bw_hz: float
    #: Required unity-gain bandwidth of the loaded opamp [Hz].
    gbw_hz: float
    #: Required slew current [A].
    slew_current: float
    #: Minimum opamp DC gain [V/V].
    dc_gain_min: float
    #: Required differential output swing [V].
    output_swing: float
    #: Input-referred noise-power allocation [V^2].
    noise_allocation: float

    @property
    def reuse_key(self) -> tuple[int, int]:
        """Key identifying interchangeable MDAC blocks: (m, input accuracy)."""
        return (self.stage_bits, self.input_accuracy_bits)

    @functools.cached_property
    def problem(self) -> MdacProblem:
        """The fields block synthesis reads, built once per spec object.

        Kept on the spec, so every digest of a planned spec's problem
        reuses the text :mod:`repro.engine.persist` remembered for it.  It
        is not a dataclass field: the spec's own encoding, and so the
        verdict and task keys that embed it, stay as they were.
        """
        return MdacProblem(*[getattr(self, name) for name in PROBLEM_FIELDS])


@dataclass(frozen=True)
class StagePlan:
    """Complete front-end plan for one candidate: MDACs plus sub-ADCs."""

    spec: AdcSpec
    candidate: PipelineCandidate
    budget: NoiseBudget
    mdacs: tuple[MdacSpec, ...]
    sub_adcs: tuple[SubAdcSpec, ...]

    @property
    def unique_mdac_keys(self) -> tuple[tuple[int, int], ...]:
        """Distinct (m, input-accuracy) MDAC specs, in stage order."""
        seen: list[tuple[int, int]] = []
        for mdac in self.mdacs:
            if mdac.reuse_key not in seen:
                seen.append(mdac.reuse_key)
        return tuple(seen)


def _sub_adc_spec(spec: AdcSpec, stage_bits: int, is_first_stage: bool) -> SubAdcSpec:
    comparators = 2**stage_bits - 2
    # Redundancy absorbs sub-ADC errors up to a quarter of the stage range
    # per side: tolerance = FS / 2^(m+1).
    tolerance = spec.full_scale / 2 ** (stage_bits + 1)
    return SubAdcSpec(
        stage_bits=stage_bits,
        comparator_count=comparators,
        offset_tolerance=tolerance,
        sample_rate_hz=spec.sample_rate_hz,
        input_capacitance=comparators * COMPARATOR_INPUT_CAP,
        is_first_stage=is_first_stage,
    )


def plan_stages(
    spec: AdcSpec,
    candidate: PipelineCandidate,
    budget: NoiseBudget | None = None,
) -> StagePlan:
    """Translate the system spec + candidate into per-stage block specs."""
    if budget is None:
        budget = allocate_noise_budget(spec, candidate)
    if len(budget.stage_allocations) != candidate.stage_count:
        raise SpecificationError("noise budget does not match candidate stages")

    sub_adcs = tuple(
        _sub_adc_spec(spec, m, is_first_stage=(i == 0))
        for i, m in enumerate(candidate.resolutions)
    )

    # Size all sampling caps first (front to back) because stage i's load
    # includes stage i+1's sampling cap.
    sizings: list[CapacitorSizing] = []
    cumulative_gain = 1.0
    for i, m in enumerate(candidate.resolutions):
        sizing = size_sampling_capacitor(
            spec.tech,
            stage_bits=m,
            input_accuracy_bits=candidate.input_accuracy_bits(i),
            cumulative_gain=cumulative_gain,
            noise_allocation=budget.stage_allocations[i],
            full_scale=spec.full_scale,
        )
        sizings.append(sizing)
        cumulative_gain *= candidate.stage_gain(i)

    # Backend load: the first backend stage is floor-bound (its accuracy is
    # <= backend_bits and it sits behind the full front-end gain).
    backend_cap = max(spec.tech.cpar_floor, 2 * spec.tech.cap_min)
    backend_sub_adc_cap = 2 * COMPARATOR_INPUT_CAP

    mdacs: list[MdacSpec] = []
    t_settle = spec.settling_window
    t_slew = spec.slew_fraction * t_settle
    t_lin = t_settle - t_slew
    for i, m in enumerate(candidate.resolutions):
        gain = candidate.stage_gain(i)
        sizing = sizings[i]
        c_total = sizing.total
        cf = c_total / gain
        c_in = OPAMP_INPUT_CAP_RATIO * c_total
        beta = cf / (c_total + c_in)

        if i + 1 < candidate.stage_count:
            next_sampling = sizings[i + 1].total
            next_sub_adc = sub_adcs[i + 1].input_capacitance
        else:
            next_sampling = backend_cap
            next_sub_adc = backend_sub_adc_cap
        c_load = next_sampling + next_sub_adc + spec.tech.cpar_floor
        c_eff = c_load + (1.0 - beta) * cf

        output_accuracy = candidate.output_accuracy_bits(i)
        eps = 2.0 ** -(output_accuracy + SETTLING_MARGIN_BITS)
        n_tau = math.log(1.0 / eps)
        gm = n_tau * c_eff / (beta * t_lin)
        closed_loop_bw = n_tau / (2.0 * math.pi * t_lin)
        gbw = closed_loop_bw / beta

        # Worst-case output step is the full differential range.
        slew_current = c_eff * spec.full_scale / t_slew if t_slew > 0 else 0.0
        dc_gain_min = 2.0 / (eps * beta)

        mdacs.append(
            MdacSpec(
                stage_index=i,
                stage_bits=m,
                gain=gain,
                input_accuracy_bits=candidate.input_accuracy_bits(i),
                output_accuracy_bits=output_accuracy,
                settling_error=eps,
                linear_settling_time=t_lin,
                slew_time=t_slew,
                caps=sizing,
                cf=cf,
                beta=beta,
                c_load=c_load,
                c_eff=c_eff,
                gm_required=gm,
                closed_loop_bw_hz=closed_loop_bw,
                gbw_hz=gbw,
                slew_current=slew_current,
                dc_gain_min=dc_gain_min,
                output_swing=spec.full_scale,
                noise_allocation=budget.stage_allocations[i],
            )
        )

    return StagePlan(
        spec=spec,
        candidate=candidate,
        budget=budget,
        mdacs=tuple(mdacs),
        sub_adcs=sub_adcs,
    )


class PlanTable:
    """The stage plans of one campaign: one :class:`StagePlan` per pair.

    A grid point's analytic screen, synthesis scenario and behavioral
    verdict all plan the same ``(spec, candidate)`` pairs.  Reading them
    from one table plans each pair once, and every reader gets the same
    plan object, so the content digests that embed its specs reuse their
    remembered text (:mod:`repro.engine.persist`).  The table lives as
    long as its owner: ``run_campaign`` makes one per call, and a direct
    ``optimize_topology`` call one of its own.  Pairs match by equality,
    and equal specs plan to equal plans, since :func:`plan_stages` is a
    pure function.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple[AdcSpec, PipelineCandidate], StagePlan] = {}

    def plan(self, spec: AdcSpec, candidate: PipelineCandidate) -> StagePlan:
        """``plan_stages(spec, candidate)``, planned on the first request."""
        key = (spec, candidate)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = plan_stages(spec, candidate)
        return plan
