"""Report formatting for power evaluations."""

from __future__ import annotations

from repro.power.analytic import CandidatePower


def stage_table(evaluation: CandidatePower) -> str:
    """Multi-line per-stage breakdown of one candidate."""
    lines = [
        f"candidate {evaluation.candidate.label} "
        f"({evaluation.candidate.total_bits}-bit front end)",
        "  stage  bits  mdac[mW]  subadc[mW]  total[mW]  binding",
    ]
    for stage in evaluation.stages:
        lines.append(
            f"  {stage.stage_index + 1:>5}  {stage.stage_bits:>4}"
            f"  {stage.mdac.total_power * 1e3:8.2f}"
            f"  {stage.sub_adc.total_power * 1e3:10.2f}"
            f"  {stage.total_power * 1e3:9.2f}"
            f"  {stage.mdac.binding_constraint}"
        )
    lines.append(
        f"  total {evaluation.total_power * 1e3:.2f} mW "
        f"(mdac {evaluation.mdac_power * 1e3:.2f}, "
        f"sub-ADC {evaluation.sub_adc_power * 1e3:.2f})"
    )
    return "\n".join(lines)
