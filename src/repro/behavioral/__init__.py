"""Behavioral (bit-level) pipelined ADC simulation.

This package answers the system-level question the electrical specs are
derived from: does a candidate configuration, with realistic block errors,
actually convert at the target resolution?  It provides:

* :mod:`repro.behavioral.pipeline` — stage-accurate conversion with
  redundancy and digital error correction;
* :mod:`repro.behavioral.nonideal` — per-stage error models (finite gain,
  incomplete settling, comparator offsets, noise, DAC level errors);
* :mod:`repro.behavioral.metrics` — SNDR/ENOB/SFDR from coherent sine
  tests, INL/DNL from histogram tests;
* :mod:`repro.behavioral.signals` — coherent test-signal generators;
* :mod:`repro.behavioral.batch` — the vectorized draws x samples x stages
  Monte-Carlo kernel (bit-identical to the scalar walk);
* :mod:`repro.behavioral.verify` — seeded mismatch injection and the
  SNDR/ENOB verdicts the campaign layer stores.
"""

from repro.behavioral.batch import BatchResult, simulate_blocks, simulate_draws
from repro.behavioral.pipeline import BehavioralPipeline, PipelineStage
from repro.behavioral.nonideal import StageErrorModel
from repro.behavioral.correction import combine_codes
from repro.behavioral.metrics import enob, inl_dnl, sfdr_db, sndr_db
from repro.behavioral.signals import coherent_sine, full_scale_sine, pick_coherent_cycles
from repro.behavioral.verify import (
    BehavioralVerdict,
    MismatchSpec,
    draw_error_models,
    verify_candidate,
)

__all__ = [
    "BatchResult",
    "BehavioralPipeline",
    "BehavioralVerdict",
    "MismatchSpec",
    "PipelineStage",
    "StageErrorModel",
    "combine_codes",
    "draw_error_models",
    "simulate_blocks",
    "simulate_draws",
    "sndr_db",
    "enob",
    "sfdr_db",
    "inl_dnl",
    "coherent_sine",
    "full_scale_sine",
    "pick_coherent_cycles",
    "verify_candidate",
]
