"""Specification translation: ADC system spec -> per-stage block specs.

The paper's flow translates the system-level ADC specification plus a
candidate configuration into MDAC and sub-ADC block specifications ("The
MDAC block-level specifications can be translated from the ADC system-level
specifications and the value m_i for the enumerated candidate").  That
translation — noise budgeting, capacitor sizing, settling/gain/slew
requirements — lives here.
"""

from repro.specs.adc import AdcSpec
from repro.specs.noise_budget import NoiseBudget, allocate_noise_budget
from repro.specs.caps import size_sampling_capacitor, CapacitorSizing
from repro.specs.stage import (
    MdacProblem,
    MdacSpec,
    PlanTable,
    StagePlan,
    SubAdcSpec,
    plan_stages,
)

__all__ = [
    "AdcSpec",
    "NoiseBudget",
    "allocate_noise_budget",
    "CapacitorSizing",
    "size_sampling_capacitor",
    "MdacProblem",
    "MdacSpec",
    "SubAdcSpec",
    "StagePlan",
    "PlanTable",
    "plan_stages",
]
