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

    #: Execution backend name: 'serial', 'process' or 'broker' (any key of
    #: :data:`repro.engine.backend.BACKENDS`).
    backend: str = "serial"
    #: Worker count for the 'process' pool (``None`` = one per CPU).
    max_workers: int | None = None
    #: Where the 'broker' backend publishes its tasks: a directory shared
    #: with ``repro-adc worker --broker DIR`` processes, or the
    #: ``http://host:port`` of a running service, whose ``/v1/broker/*``
    #: routes its attached workers drain.  ``None`` lets a campaign with a
    #: store use ``<store>/queue/``, so acks survive a kill and resume at
    #: task granularity.  A pure execution knob — like ``backend`` itself
    #: it never enters result identity.  Ignored by the other backends.
    broker: str | None = None
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
