"""Kernel equivalence: the compiled evaluator == the reference walk, bitwise.

The PR 3 acceptance contract: every metric, cost, optimizer trajectory and
synthesis outcome of the compiled evaluator must be *bit-identical* to the
per-element equation path kept in ``tests/synth/evaluator_reference.py``.

The searches on the compiled evaluator also pass their ``reject`` callback
through, so candidates they would turn down skip the loop sweep, while the
reference evaluator ignores it.  Matching trajectories therefore show that
pruning moves nothing, and every such comparison checks that it pruned.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.synth.synthesis
from repro.engine.persist import sizing_digest
from repro.errors import AnalysisError
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import (
    HybridEvaluator,
    anneal,
    differential_evolution,
    synthesize_mdac,
    two_stage_space,
)
from repro.synth.evaluator import FAILED_COST
from repro.synth.patternsearch import pattern_search
from repro.tech import CMOS025
from repro.tech.process import CMOS025_SLOW
from tests.conftest import rejected_candidates
from tests.synth.evaluator_reference import ReferenceEvaluator

CORNERS = {"nom": CMOS025, "slow": CMOS025_SLOW}


def _mdac(index=2):
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[index]


def _sizings(tech, count, seed):
    mdac = _mdac()
    space = two_stage_space(mdac, tech)
    rng = np.random.default_rng(seed)
    return mdac, [space.decode(rng.random(space.dimension)) for _ in range(count)]


def _assert_results_equal(a, b):
    for field in (
        "power",
        "dc_gain",
        "loop_unity_hz",
        "phase_margin",
        "saturation_margin",
        "settling_error",
        "dc_ok",
    ):
        assert getattr(a, field) == getattr(b, field), field
    assert a.violations == b.violations
    assert a.cost() == b.cost()


class TestEvaluatorEquivalence:
    def test_compiled_matches_legacy_bitwise(self):
        mdac = _mdac()
        space = two_stage_space(mdac, CMOS025)
        rng = np.random.default_rng(3)
        sizings = [space.decode(rng.random(space.dimension)) for _ in range(12)]
        legacy = ReferenceEvaluator(mdac, CMOS025)
        compiled_ = HybridEvaluator(mdac, CMOS025)
        for sizing in sizings:
            _assert_results_equal(
                legacy.evaluate(sizing), compiled_.evaluate(sizing)
            )
        assert legacy.equation_evals == compiled_.equation_evals

    def test_evaluate_batch_matches_sequential(self):
        mdac = _mdac()
        space = two_stage_space(mdac, CMOS025)
        rng = np.random.default_rng(9)
        sizings = [space.decode(rng.random(space.dimension)) for _ in range(10)]
        sequential = HybridEvaluator(mdac, CMOS025)
        batched = HybridEvaluator(mdac, CMOS025)
        seq_results = [sequential.evaluate(s) for s in sizings]
        batch_results = batched.evaluate_batch(sizings)
        for a, b in zip(seq_results, batch_results):
            _assert_results_equal(a, b)
        assert sequential.equation_evals == batched.equation_evals

    def test_empty_batch(self):
        evaluator = HybridEvaluator(_mdac(), CMOS025)
        assert evaluator.evaluate_batch([]) == []
        assert evaluator.equation_evals == 0


class TestCornerEquivalence:
    """Every corner: the batch path equals the reference walk."""

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_batch_matches_legacy_walk(self, corner):
        tech = CORNERS[corner]
        mdac, sizings = _sizings(tech, 6, seed=11)
        legacy = ReferenceEvaluator(mdac, tech)
        compiled_ = HybridEvaluator(mdac, tech)
        reference = [legacy.evaluate(s) for s in sizings]
        for a, b in zip(reference, compiled_.evaluate_batch(sizings)):
            _assert_results_equal(a, b)
        assert legacy.equation_evals == compiled_.equation_evals


class TestOptimizerTrajectories:
    """Each optimizer walks the same trajectory on either evaluator."""

    @pytest.fixture(params=[(2, 2), (1, 5), (0, 8)], ids=lambda p: f"mdac{p[0]}-seed{p[1]}")
    def setup(self, request):
        index, seed = request.param
        mdac = _mdac(index)
        space = two_stage_space(mdac, CMOS025)
        evaluators = {
            "legacy": ReferenceEvaluator(mdac, CMOS025),
            "compiled": HybridEvaluator(mdac, CMOS025),
        }

        def cost(kernel):
            evaluator = evaluators[kernel]
            return lambda u, reject=None: evaluator.evaluate(
                space.decode(u), reject=reject
            ).cost()

        return space.dimension, evaluators, cost, seed

    def test_anneal(self, setup):
        dimension, evaluators, cost, seed = setup
        ref = anneal(cost("legacy"), dimension, budget=40, seed=seed)
        got = anneal(cost("compiled"), dimension, budget=40, seed=seed)
        assert got.history == ref.history
        assert np.array_equal(got.best_x, ref.best_x)
        assert got.best_cost == ref.best_cost
        assert (
            evaluators["compiled"].equation_evals
            == evaluators["legacy"].equation_evals
        )
        assert evaluators["compiled"].rejected_evals > 0
        assert evaluators["legacy"].rejected_evals == 0

    def test_differential_evolution(self, setup):
        dimension, evaluators, cost, seed = setup
        options = dict(budget=32, seed=seed, population=8)
        ref = differential_evolution(cost("legacy"), dimension, **options)
        got = differential_evolution(cost("compiled"), dimension, **options)
        assert got.history == ref.history
        assert np.array_equal(got.best_x, ref.best_x)
        assert (
            evaluators["compiled"].equation_evals
            == evaluators["legacy"].equation_evals
        )
        # DE compares without a reject callback.
        assert evaluators["compiled"].rejected_evals == 0

    def test_pattern_search(self, setup):
        dimension, evaluators, cost, seed = setup
        starts = (np.full(dimension, 0.5), np.random.default_rng(seed).random(dimension))
        for x0 in starts:
            ref_x, ref_cost, ref_evals = pattern_search(cost("legacy"), x0, budget=30)
            got_x, got_cost, got_evals = pattern_search(cost("compiled"), x0, budget=30)
            assert np.array_equal(got_x, ref_x)
            assert (got_cost, got_evals) == (ref_cost, ref_evals)
        assert (
            evaluators["compiled"].equation_evals
            == evaluators["legacy"].equation_evals
        )
        assert evaluators["compiled"].rejected_evals > 0


class TestSynthesisEquivalence:
    @pytest.mark.parametrize(
        "optimizer, index, seed",
        [("anneal", 2, 1), ("anneal", 0, 3), ("anneal", 1, 4), ("de", 2, 1), ("de", 1, 2)],
    )
    def test_synthesize_identical_across_kernels(
        self, optimizer, index, seed, monkeypatch
    ):
        def run():
            return synthesize_mdac(
                _mdac(index),
                CMOS025,
                budget=60,
                seed=seed,
                optimizer=optimizer,
                verify_transient=False,
            )

        other = run()
        # The anneal and the pattern-search polish (after DE too) pruned.
        assert rejected_candidates() > 0
        built = []

        def reference(*args, **kwargs):
            built.append(ReferenceEvaluator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(repro.synth.synthesis, "HybridEvaluator", reference)
        pruned = rejected_candidates()
        base = run()
        assert len(built) == 1  # the search really ran on the oracle
        assert rejected_candidates() == pruned  # which never rejects
        assert sizing_digest(other) == sizing_digest(base)
        assert other.history == base.history
        assert other.equation_evals == base.equation_evals
        assert other.final.cost() == base.final.cost()
        assert other.final.violations == base.final.violations


class _LoopGridFails(HybridEvaluator):
    """Every loop-grid solve raises, as a singular loop sweep would."""

    def _transfer(self, lin, freqs):
        if len(freqs) > 1:
            raise AnalysisError("forced loop-grid failure")
        return super()._transfer(lin, freqs)


def _bounds_and_results(evaluator_cls, tech, mdac, points):
    """``(bounds asked, unpruned result)`` per point of one sizing sequence.

    A probe evaluator records the bounds its never-rejecting callback is
    handed; a twin fed the same sequence without ``reject`` scores them.
    """
    space = two_stage_space(mdac, tech)
    probe, twin = evaluator_cls(mdac, tech), evaluator_cls(mdac, tech)
    out = []
    for u in points:
        sizing = space.decode(np.asarray(u))
        bounds = []
        seen = probe.evaluate(sizing, reject=lambda b: bounds.append(b) or False)
        result = twin.evaluate(sizing)
        # A reject answering False changes nothing, the DC warm chain included.
        assert seen.cost() == result.cost()
        assert len(bounds) <= 1
        out.append((bounds, result))
    return out


class TestRejectBound:
    """The bound handed to ``reject`` never exceeds the candidate's cost."""

    @settings(max_examples=25, deadline=None)
    @given(
        corner=st.sampled_from(sorted(CORNERS)),
        index=st.integers(0, 2),
        loop_fails=st.booleans(),
        # Unit points of the nine-variable two-stage space.
        points=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
            min_size=1,
            max_size=4,
        ),
    )
    def test_bound_is_at_most_the_cost(self, corner, index, loop_fails, points):
        evaluator_cls = _LoopGridFails if loop_fails else HybridEvaluator
        for bounds, result in _bounds_and_results(
            evaluator_cls, CORNERS[corner], _mdac(index), points
        ):
            for bound in bounds:
                assert bound <= result.cost()

    def test_cap_is_what_bounds_a_failed_loop_grid(self, monkeypatch):
        # A saturation margin of -1 kV puts the uncapped early cost far
        # above what a failed loop sweep costs.
        monkeypatch.setattr(HybridEvaluator, "_saturation_margin", lambda self, op: -1e3)
        mdac = _mdac(2)
        space = two_stage_space(mdac, CMOS025)
        evaluator = _LoopGridFails(mdac, CMOS025)
        bounds = []
        result = evaluator.evaluate(
            space.decode(np.full(space.dimension, 0.5)),
            reject=lambda b: bounds.append(b) or False,
        )
        assert result.cost() == FAILED_COST
        assert bounds == [FAILED_COST]

    def test_rejected_result(self):
        mdac = _mdac(2)
        space = two_stage_space(mdac, CMOS025)
        sizing = space.decode(np.full(space.dimension, 0.5))
        full = HybridEvaluator(mdac, CMOS025).evaluate(sizing)
        evaluator = HybridEvaluator(mdac, CMOS025)
        rejected = evaluator.evaluate(sizing, reject=lambda bound: True)
        assert evaluator.rejected_evals == 1
        assert rejected.cost() == math.inf
        assert not rejected.feasible
        assert (rejected.power, rejected.saturation_margin, rejected.dc_gain) == (
            full.power,
            full.saturation_margin,
            full.dc_gain,
        )
        assert rejected.loop_unity_hz is None and rejected.phase_margin is None
