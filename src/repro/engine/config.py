"""One knob-set for the whole flow: backend, budgets, persistence.

``FlowConfig`` is the single object threaded through
:func:`~repro.flow.topology.optimize_topology`,
:func:`~repro.flow.designer.extract_rules` and the CLI.  It is a frozen,
picklable dataclass so it can ride inside process-pool tasks (the
designer-rule sweep sends a serialized sub-config to each worker).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.backend import ExecutionBackend, create_backend

if TYPE_CHECKING:
    from repro.flow.cache import BlockCache
    from repro.tech.process import Technology


@dataclass(frozen=True)
class FlowConfig:
    """Execution and synthesis configuration for one flow invocation."""

    #: Execution backend name: 'serial', 'process', 'queue' or 'broker'
    #: (any key of :data:`repro.engine.backend.BACKENDS`).
    backend: str = "serial"
    #: Worker count for pooled backends (``None`` = one per CPU).
    max_workers: int | None = None
    #: Directory for the 'queue' backend's lease/ack files; ``None`` lets
    #: the backend use an ephemeral temporary directory (functional, but
    #: task acks do not survive the process).  The campaign runner points
    #: this inside the results store so interrupted runs resume at task
    #: granularity.  The 'broker' backend accepts it too (a directory
    #: broker shared with remote workers).  Ignored by the other backends.
    queue_dir: str | None = None
    #: Base URL of a running service's HTTP broker (``http://host:port``)
    #: for the 'broker' backend: tasks are published to ``/v1/broker/*``
    #: and executed by ``repro-adc worker`` processes.  A pure execution
    #: knob — like ``backend`` itself it never enters result identity
    #: (campaign manifests exclude it).  Ignored by the other backends.
    broker_url: str | None = None
    #: The 'broker' backend's no-progress timeout [s]: abort a ``map`` when
    #: no ack, failure, or live worker lease has been seen for this long
    #: (the diagnostic names the likely cause — no workers attached).  Zero
    #: or negative waits forever.  A pure execution knob like ``broker_url``;
    #: never enters result identity.  Ignored by the other backends.
    broker_wait_timeout: float = 300.0
    #: Directory for the persistent block and verdict cache: synthesized
    #: blocks, and behavioral verdicts under ``verdicts/``.  ``None`` keeps
    #: synthesis results in memory only and caches no verdicts.
    cache_dir: str | None = None
    #: Cold-synthesis annealer budget (evaluations).
    budget: int = 400
    #: Warm-start (retarget) budget.
    retarget_budget: int = 80
    #: Cold-synthesis RNG seed.
    seed: int = 1
    #: Retarget RNG seed.
    retarget_seed: int = 7
    #: Run the nonlinear transient verifier on every synthesized block.
    verify_transient: bool = True
    #: Monte-Carlo mismatch draws per behavioral scenario.
    behavioral_draws: int = 32
    #: Seed for the behavioral draw tree (parameter + noise streams).
    behavioral_seed: int = 101
    #: Telemetry level (see :mod:`repro.obs` and docs/observability.md):
    #: 'off' (no metric export, no traces), 'metrics' (the default —
    #: counters accumulate and campaigns write an aggregated
    #: ``metrics.json`` into their store) or 'trace' (metrics plus span
    #: export to ``<store>/traces/*.jsonl``).  A pure execution knob:
    #: records are byte-identical whichever mode ran them, so it never
    #: enters manifests, fingerprints or task payloads.
    telemetry: str = "metrics"

    def make_backend(self) -> ExecutionBackend:
        """Instantiate this configuration's execution backend."""
        return create_backend(self.backend, self)

    def make_cache(self, tech: "Technology") -> "BlockCache":
        """Build the block cache: persistent when ``cache_dir`` is set."""
        # Imported lazily: flow.cache sits downstream of the engine package.
        from repro.flow.cache import BlockCache, PersistentBlockCache

        kwargs = dict(
            tech=tech,
            budget=self.budget,
            retarget_budget=self.retarget_budget,
            seed=self.seed,
            retarget_seed=self.retarget_seed,
            verify_transient=self.verify_transient,
        )
        if self.cache_dir is not None:
            return PersistentBlockCache(cache_dir=self.cache_dir, **kwargs)
        return BlockCache(**kwargs)

    def serial(self) -> "FlowConfig":
        """This config forced onto the serial backend.

        Used inside pool workers: a worker that fans out again would
        oversubscribe the machine, so nested flow calls run serially.
        """
        if self.backend == "serial":
            return self
        return dataclasses.replace(self, backend="serial", max_workers=None)


#: The default configuration: serial, in-memory, paper budgets.
DEFAULT_FLOW_CONFIG = FlowConfig()
