"""Extension study: how the optimum topology moves with sample rate.

The paper fixes 40 MSPS; its methodology, however, is a reusable flow.
This example sweeps the conversion rate for a 13-bit target as a *campaign*
— a one-axis :class:`repro.CampaignGrid` run as a single batch — and
watches the optimum configuration and its power: at low rates settling is
easy and capacitors dominate; at high rates the settling (gm) burden
amplifies the feedback-factor penalty of aggressive front stages.

Run with::

    python examples/rate_sweep.py
    python examples/rate_sweep.py --backend process   # pooled evaluation

The ``--backend`` choice rides on the same :class:`repro.FlowConfig` every
flow entry point takes; the campaign shares the chosen backend across the
whole sweep (one pool, not one per rate point) and serial and process
produce identical tables.
"""

import argparse

from repro import CampaignGrid, FlowConfig, run_campaign
from repro.engine.backend import BACKENDS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="serial",
        help="execution backend for the batched sweep (default: serial)",
    )
    args = parser.parse_args()

    grid = CampaignGrid(
        resolutions=(13,),
        sample_rates_hz=tuple(r * 1e6 for r in (10, 20, 40, 60, 80)),
    )
    campaign = run_campaign(grid, config=FlowConfig(backend=args.backend))

    print("13-bit optimum vs sample rate (analytic flow):\n")
    print("  rate [MSPS]   optimum      total [mW]   runner-up")
    for scenario in campaign.scenarios:
        best, second = scenario.topology.evaluations[:2]
        rate_msps = scenario.scenario.spec.sample_rate_hz / 1e6
        print(
            f"  {rate_msps:11.0f}   {best.label:10s} {best.total_power*1e3:9.2f}"
            f"     {second.label} (+{(second.total_power-best.total_power)*1e3:.2f} mW)"
        )

    print("\nCampaign comparison across the same sweep:\n")
    print(campaign.report())

    print("\nDetail at the paper's 40 MSPS point:")
    from repro.power import candidate_power
    from repro.power.report import stage_table
    from repro.specs.adc import AdcSpec

    spec = AdcSpec(resolution_bits=13, sample_rate_hz=40e6)
    best = campaign.topology_by_resolution(sample_rate_hz=40e6)[13].best
    print(stage_table(candidate_power(spec, best.candidate)))


if __name__ == "__main__":
    main()
