"""repro — reproduction of "Designer-Driven Topology Optimization for
Pipelined Analog to Digital Converters" (Chien et al., DATE 2005).

The package builds the paper's full stack from scratch:

* a circuit simulator (MNA DC/AC/transient/noise/pole-zero) and compact
  0.25 um CMOS device models (:mod:`repro.analysis`, :mod:`repro.tech`);
* the DPI/SFG + Mason's-rule symbolic transfer-function engine
  (:mod:`repro.sfg`, :mod:`repro.symbolic`);
* annealing-based block synthesis with hybrid equation + simulation
  evaluation — the NeoCircuit substitute (:mod:`repro.synth`);
* candidate enumeration, spec translation and power models
  (:mod:`repro.enumeration`, :mod:`repro.specs`, :mod:`repro.power`);
* the behavioral pipelined-ADC simulator (:mod:`repro.behavioral`);
* the topology-optimization flow and the experiments regenerating every
  figure (:mod:`repro.flow`, :mod:`repro.experiments`);
* the execution engine (backends, wave scheduler, persistent block cache —
  :mod:`repro.engine`) and the campaign layer for batched design-space
  sweeps with cross-scenario synthesis reuse (:mod:`repro.campaign`);
* the async optimization service — jobs over HTTP with content-keyed
  request coalescing and streaming progress (:mod:`repro.service`).

Quickstart::

    from repro import AdcSpec, optimize_topology
    result = optimize_topology(AdcSpec(resolution_bits=13))
    print(result.best.label)   # '4-3-2'
"""

from repro.campaign import CampaignGrid, CampaignResult, run_campaign
from repro.engine import (
    FlowConfig,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.enumeration import PipelineCandidate, enumerate_candidates
from repro.flow import BlockCache, PersistentBlockCache, optimize_topology
from repro.power import candidate_power
from repro.specs import AdcSpec, plan_stages
from repro.tech import CMOS025, CMOS025_SLOW

__version__ = "1.3.0"

__all__ = [
    "AdcSpec",
    "BlockCache",
    "CMOS025",
    "CMOS025_SLOW",
    "CampaignGrid",
    "CampaignResult",
    "FlowConfig",
    "PersistentBlockCache",
    "PipelineCandidate",
    "ProcessPoolBackend",
    "SerialBackend",
    "enumerate_candidates",
    "plan_stages",
    "candidate_power",
    "optimize_topology",
    "run_campaign",
    "__version__",
]
