"""Block-synthesis caches keyed by the MDAC reuse key.

Two stages with the same ``(stage_bits, input_accuracy_bits)`` under the
same system spec get identical block specifications, so one synthesis
serves them all.  This is exactly how eleven-odd MDAC syntheses covered all
seven 13-bit candidates in the paper; the first block of a given stage
resolution is synthesized cold and subsequent specs are *retargeted* from
the nearest already-sized block.

Two cache tiers are provided:

* :class:`BlockCache` — the in-memory synthesize-once cache.  It serves
  both the legacy serial ``get`` path and the wave scheduler in
  :mod:`repro.engine.scheduler` (via ``admit``/``load_persistent``).
* :class:`PersistentBlockCache` — adds a content-addressed on-disk layer
  (see :mod:`repro.engine.persist`) so repeated runs — rate sweeps,
  designer-rule extraction, CI — skip synthesis entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.persist import load_result, store_result
from repro.errors import SpecificationError
from repro.obs import metrics
from repro.specs.stage import MdacSpec
from repro.synth.result import SynthesisResult
from repro.tech.process import Technology


@dataclass
class BlockCache:
    """Synthesize-once cache with retarget-based warm starts."""

    tech: Technology
    budget: int = 400
    retarget_budget: int = 80
    seed: int = 1
    retarget_seed: int = 7
    verify_transient: bool = True
    results: dict[tuple[int, int], SynthesisResult] = field(default_factory=dict)
    #: How many synthesis calls were cold vs retargeted (for reporting).
    cold_runs: int = 0
    retargeted_runs: int = 0
    #: Lookups served from the in-memory result map.
    cache_hits: int = 0
    #: External warm-start donors (blocks sized for *other* system specs,
    #: e.g. by earlier scenarios of a campaign).  They join the scheduler's
    #: donor scan ahead of this cache's own results but never satisfy a
    #: reuse key — see :func:`repro.engine.scheduler.plan_synthesis`.
    donor_pool: tuple[SynthesisResult, ...] = ()
    #: Warm-start *attempts* seeded from the external donor pool.  A
    #: successful attempt lands in ``retargeted_runs``; a failed one
    #: escalates (below) and its block is counted in ``cold_runs`` instead.
    pool_warm_starts: int = 0
    #: Retarget searches that ran, missed feasibility and were discarded in
    #: favor of a cold resolution (see the escalation step in
    #: :func:`repro.engine.scheduler.execute_plan`).  Exactly the extra
    #: search work beyond ``cold_runs + retargeted_runs``; cache-served
    #: escalations (a previously persisted failed attempt) do not count.
    pool_escalations: int = 0

    def get(self, mdac: MdacSpec) -> SynthesisResult:
        """Return the synthesized block for this spec, reusing or retargeting.

        Misses resolve through the wave scheduler as a one-node plan, so the
        serial ``get`` path and the batched :func:`execute_plan` path share
        one implementation of donor selection, fingerprinting, persistent
        lookup and admission — they cannot drift apart.
        """
        key = mdac.reuse_key
        hit = self.lookup(key)
        if hit is not None:
            self.cache_hits += 1
            metrics.counter("cache.memory_hits")
            return hit

        # Imported here: the scheduler sits in the engine package, which
        # must stay importable without repro.flow.
        from repro.engine.backend import SerialBackend
        from repro.engine.scheduler import execute_plan, plan_synthesis

        resolved = execute_plan(
            plan_synthesis([mdac], self.results, donors=self.donor_pool),
            self,
            SerialBackend(),
        )
        return resolved[key]

    def lookup(self, key: tuple[int, int]) -> SynthesisResult | None:
        """In-memory lookup without touching the hit counter."""
        return self.results.get(key)

    def admit(
        self,
        key: tuple[int, int],
        result: SynthesisResult,
        fingerprint: str | None = None,
        newly_synthesized: bool = True,
    ) -> None:
        """Record a resolved block, maintaining the effort counters.

        ``newly_synthesized`` distinguishes fresh search work (counted as
        cold or retargeted from ``result.retargeted``) from blocks loaded
        out of the persistent layer (counted there, not here).
        """
        if newly_synthesized:
            if result.retargeted:
                self.retargeted_runs += 1
                metrics.counter("cache.retargeted_runs")
            else:
                self.cold_runs += 1
                metrics.counter("cache.cold_runs")
        self.results[key] = result
        if fingerprint is not None and newly_synthesized:
            self._persist(fingerprint, result)

    def load_persistent(
        self, fingerprint: str, spec: MdacSpec | None = None
    ) -> SynthesisResult | None:
        """Persistent-layer lookup; the in-memory cache has none.

        ``spec`` is the block being resolved — fingerprint-only caches
        ignore it, but spec-aware layers (the campaign ledger) use it to
        serve an already-sized block for the identical problem even when
        the search hyper-parameters (donor, budget) differ.  A served
        block's ``spec`` is ``spec``.
        """
        return None

    def _persist(self, fingerprint: str, result: SynthesisResult) -> None:
        """Write-through hook; the in-memory cache drops it."""

    @property
    def unique_blocks(self) -> int:
        """Number of distinct MDAC specs synthesized so far."""
        return len(self.results)

    @property
    def synthesis_runs(self) -> int:
        """Actual searches performed (cold + retargeted)."""
        return self.cold_runs + self.retargeted_runs


@dataclass
class PersistentBlockCache(BlockCache):
    """Block cache backed by a content-addressed directory on disk.

    Entries are keyed by :func:`repro.engine.persist.block_fingerprint` —
    a hash of the MDAC spec's problem, technology, budget, seed,
    verification flag and (for retargets) the donor design — so a
    fingerprint hit is exact: the stored result is what this synthesis
    would have produced.
    """

    cache_dir: str | None = None
    #: Blocks served from disk instead of a fresh search.
    persistent_hits: int = 0

    def __post_init__(self) -> None:
        if self.cache_dir is None:
            raise SpecificationError("PersistentBlockCache requires cache_dir")

    def load_persistent(
        self, fingerprint: str, spec: MdacSpec | None = None
    ) -> SynthesisResult | None:
        result = load_result(self.cache_dir, fingerprint)
        if result is None:
            metrics.counter("cache.persistent_misses")
            return None
        self.persistent_hits += 1
        metrics.counter("cache.persistent_hits")
        if spec is not None:
            # The fingerprint digests the spec's problem, so the stored
            # block was sized for ``spec`` or for another spec posing the
            # same problem.  Point the fresh copy at the planned spec: the
            # block then names the spec it serves, and every later digest
            # of it (ledger spec key, sizing digest, donor fingerprints)
            # reuses the text the fingerprint remembered.
            result.spec = spec
        return result

    def _persist(self, fingerprint: str, result: SynthesisResult) -> None:
        store_result(self.cache_dir, fingerprint, result)
