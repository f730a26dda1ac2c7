"""Execution engine: backends, scheduling, configuration, persistence.

The engine layer is the orchestration spine introduced between the flow
(:mod:`repro.flow`) and the per-block machinery (:mod:`repro.synth`):

* :mod:`repro.engine.backend` — the :class:`ExecutionBackend` contract with
  serial and process-pool implementations;
* :mod:`repro.engine.broker` — the :class:`Broker` task-distribution
  protocol (directory and HTTP implementations) behind the work queue and
  the ``repro-adc worker`` fleet;
* :mod:`repro.engine.scheduler` — deduplicated, wave-ordered synthesis
  scheduling that preserves nearest-donor warm starts under parallelism;
* :mod:`repro.engine.persist` — content-fingerprinted on-disk persistence
  of synthesis results;
* :mod:`repro.engine.config` — :class:`FlowConfig`, the single knob-set
  threaded through every entry point.

Nothing in this package imports from :mod:`repro.flow` at module scope, so
the dependency direction stays engine -> synth/specs/tech.
"""

from repro.engine.backend import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    create_backend,
)
from repro.engine.config import DEFAULT_FLOW_CONFIG, FlowConfig
from repro.engine.persist import block_fingerprint, load_result, store_result
from repro.engine.scheduler import (
    PlanNode,
    SynthesisJob,
    SynthesisPlan,
    execute_plan,
    plan_synthesis,
    run_synthesis_job,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_FLOW_CONFIG",
    "ExecutionBackend",
    "FlowConfig",
    "PlanNode",
    "ProcessPoolBackend",
    "SerialBackend",
    "SynthesisJob",
    "SynthesisPlan",
    "block_fingerprint",
    "create_backend",
    "execute_plan",
    "load_result",
    "plan_synthesis",
    "run_synthesis_job",
    "store_result",
]
