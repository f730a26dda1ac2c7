"""Circuit blocks of the pipelined ADC.

* :mod:`repro.blocks.opamp` — sizing dataclasses for the opamp topologies;
* :mod:`repro.blocks.opamp_library` — transistor-level netlist generators
  (two-stage Miller, folded cascode) used by block synthesis;
* :mod:`repro.blocks.mdac` — the switched-capacitor MDAC: capacitor network
  arithmetic and the closed-loop settling testbench;
* :mod:`repro.blocks.comparator` / :mod:`repro.blocks.subadc` — behavioral
  comparator and flash sub-ADC models with offset injection;
* :mod:`repro.blocks.sah` — the front-end sample-and-hold.
"""

from repro.blocks.opamp import FoldedCascodeSizing, TwoStageSizing
from repro.blocks.opamp_library import (
    build_folded_cascode,
    build_two_stage_miller,
)
from repro.blocks.mdac import MdacNetwork, build_settling_bench
from repro.blocks.comparator import BehavioralComparator
from repro.blocks.subadc import FlashSubAdc
from repro.blocks.sah import SampleAndHold

__all__ = [
    "TwoStageSizing",
    "FoldedCascodeSizing",
    "build_two_stage_miller",
    "build_folded_cascode",
    "MdacNetwork",
    "build_settling_bench",
    "BehavioralComparator",
    "FlashSubAdc",
    "SampleAndHold",
]
