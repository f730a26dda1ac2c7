"""One search per electrical problem.

Block synthesis reads only a spec's :class:`~repro.specs.stage.MdacProblem`.
Two specs that pose one problem, whatever their noise allocation, capacitor
report, stage position, output accuracy or slew current, must get one
search in a campaign, on every backend, and the same block.  Each scenario
below is what ``run_campaign`` builds for a synthesis scenario: a
:class:`~repro.campaign.runner.LedgerBackedCache` on the campaign's ledger,
seeded with the ledger's donors, resolving its plan through the scheduler.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.runner import LedgerBackedCache, SynthesisLedger
from repro.engine.backend import ProcessPoolBackend, SerialBackend
from repro.engine.config import FlowConfig
from repro.engine.persist import digest
from repro.engine.scheduler import execute_plan, plan_synthesis
from repro.enumeration.candidates import enumerate_candidates
from repro.specs import AdcSpec, CapacitorSizing, plan_stages
from repro.synth import synthesize_mdac
from repro.tech import CMOS025

CONFIG = FlowConfig(budget=30, retarget_budget=10, verify_transient=False)

#: Any float, NaN and the infinities included: synthesis never reads them.
ANY_FLOAT = st.floats()

#: Values for every spec field outside the problem that a campaign varies.
OUTSIDE_THE_PROBLEM = st.fixed_dictionaries(
    {
        "noise_allocation": ANY_FLOAT,
        "caps": st.builds(
            CapacitorSizing,
            total=ANY_FLOAT,
            unit=ANY_FLOAT,
            units=st.integers(),
            binding_constraint=st.text(max_size=8),
            noise_requirement=ANY_FLOAT,
            matching_requirement=ANY_FLOAT,
            floor_requirement=ANY_FLOAT,
        ),
        "stage_index": st.integers(0, 6),
        "output_accuracy_bits": st.integers(0, 16),
        "slew_current": ANY_FLOAT,
    }
)


def _base():
    """The second MDAC of the 10-bit 3-2 plan: feasible at ``CONFIG``."""
    candidate = next(c for c in enumerate_candidates(10) if c.label == "3-2")
    return plan_stages(AdcSpec(resolution_bits=10), candidate).mdacs[1]


def _block_digest(result) -> str:
    """Digest of a block's design, every float by its bits (``float.hex``).

    It covers the whole result but the spec it names and its wall time.
    (Pickle bytes would not do: a block that crossed a process boundary
    can pickle with another memo layout.)
    """
    return digest(
        (
            result.final,
            result.history,
            result.equation_evals,
            result.transient_evals,
            result.retargeted,
        )
    )


@functools.lru_cache(maxsize=None)
def _plain_block() -> str:
    result = synthesize_mdac(
        _base(),
        CMOS025,
        budget=CONFIG.budget,
        seed=CONFIG.seed,
        verify_transient=CONFIG.verify_transient,
    )
    assert result.feasible
    return _block_digest(result)


def _scenario(ledger, spec, backend):
    """One synthesis scenario of ``spec`` on the campaign's ``ledger``."""
    cache = LedgerBackedCache(
        tech=CMOS025,
        budget=CONFIG.budget,
        retarget_budget=CONFIG.retarget_budget,
        seed=CONFIG.seed,
        retarget_seed=CONFIG.retarget_seed,
        verify_transient=CONFIG.verify_transient,
        donor_pool=ledger.donors_for(CMOS025.name),
        ledger=ledger,
    )
    plan = plan_synthesis([spec], cache.results, donors=cache.donor_pool)
    return cache, execute_plan(plan, cache, backend)[spec.reuse_key]


class _EveryTaskInAWorker(ProcessPoolBackend):
    """The process backend without its in-process path for one-task maps.

    Each scenario here dispatches one job, which the pool would run in
    the calling process; this sends it through a worker, so the block
    crosses the process boundary as it does in a wider wave.
    """

    def map(self, fn, tasks):
        return list(self._pool().map(fn, list(tasks)))


@pytest.fixture(scope="module", params=["serial", "process"])
def backend(request):
    backend = (
        SerialBackend() if request.param == "serial" else _EveryTaskInAWorker(1)
    )
    yield backend
    backend.close()


@settings(max_examples=10, deadline=None)
@given(first=OUTSIDE_THE_PROBLEM, second=OUTSIDE_THE_PROBLEM)
def test_two_specs_with_one_problem_get_one_search(backend, first, second):
    a = dataclasses.replace(_base(), **first)
    b = dataclasses.replace(_base(), **second)
    assert a.problem == b.problem

    ledger = SynthesisLedger()
    (cache_a, block_a), (cache_b, block_b) = (
        _scenario(ledger, spec, backend) for spec in (a, b)
    )
    searches = sum(
        cache.cold_runs + cache.retargeted_runs + cache.pool_escalations
        for cache in (cache_a, cache_b)
    )
    assert searches == 1
    assert (cache_a.shared_hits, cache_b.shared_hits) == (0, 1)
    assert _block_digest(block_a) == _block_digest(block_b) == _plain_block()

    # Each block names the spec it was planned for (``repr``, since a
    # process worker returns a copy and NaN fields never compare equal),
    # and the ledger's own block was never re-pointed.
    assert repr(block_a.spec) == repr(a)
    assert block_b.spec is b
    (held,) = ledger.by_spec.values()
    assert repr(held.spec) == repr(a)
