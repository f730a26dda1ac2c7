"""Kernel equivalence: the compiled evaluator == the reference walk, bitwise.

The PR 3 acceptance contract: every metric, cost, optimizer trajectory and
synthesis outcome of the compiled evaluator must be *bit-identical* to the
per-element equation path kept in ``tests/synth/evaluator_reference.py``.
"""

import numpy as np
import pytest

import repro.synth.synthesis
from repro.engine.persist import sizing_digest
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import (
    HybridEvaluator,
    anneal,
    differential_evolution,
    synthesize_mdac,
    two_stage_space,
)
from repro.synth.patternsearch import pattern_search
from repro.tech import CMOS025
from repro.tech.process import CMOS025_SLOW
from tests.synth.evaluator_reference import ReferenceEvaluator

CORNERS = {"nom": CMOS025, "slow": CMOS025_SLOW}


def _mdac():
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[2]


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

    @pytest.fixture
    def setup(self):
        mdac = _mdac()
        space = two_stage_space(mdac, CMOS025)
        evaluators = {
            "legacy": ReferenceEvaluator(mdac, CMOS025),
            "compiled": HybridEvaluator(mdac, CMOS025),
        }

        def cost(kernel):
            evaluator = evaluators[kernel]
            return lambda u: evaluator.evaluate(space.decode(u)).cost()

        return space.dimension, evaluators, cost

    def test_anneal(self, setup):
        dimension, evaluators, cost = setup
        ref = anneal(cost("legacy"), dimension, budget=40, seed=2)
        got = anneal(cost("compiled"), dimension, budget=40, seed=2)
        assert got.history == ref.history
        assert np.array_equal(got.best_x, ref.best_x)
        assert got.best_cost == ref.best_cost
        assert (
            evaluators["compiled"].equation_evals
            == evaluators["legacy"].equation_evals
        )

    def test_differential_evolution(self, setup):
        dimension, evaluators, cost = setup
        options = dict(budget=32, seed=2, population=8)
        ref = differential_evolution(cost("legacy"), dimension, **options)
        got = differential_evolution(cost("compiled"), dimension, **options)
        assert got.history == ref.history
        assert np.array_equal(got.best_x, ref.best_x)
        assert (
            evaluators["compiled"].equation_evals
            == evaluators["legacy"].equation_evals
        )

    def test_pattern_search(self, setup):
        dimension, evaluators, cost = setup
        x0 = np.full(dimension, 0.5)
        ref_x, ref_cost, ref_evals = pattern_search(cost("legacy"), x0, budget=30)
        got_x, got_cost, got_evals = pattern_search(cost("compiled"), x0, budget=30)
        assert np.array_equal(got_x, ref_x)
        assert (got_cost, got_evals) == (ref_cost, ref_evals)
        assert (
            evaluators["compiled"].equation_evals
            == evaluators["legacy"].equation_evals
        )


class TestSynthesisEquivalence:
    @pytest.mark.parametrize("optimizer", ["anneal", "de"])
    def test_synthesize_identical_across_kernels(self, optimizer, monkeypatch):
        def run():
            return synthesize_mdac(
                _mdac(),
                CMOS025,
                budget=60,
                seed=1,
                optimizer=optimizer,
                verify_transient=False,
            )

        other = run()
        built = []

        def reference(*args, **kwargs):
            built.append(ReferenceEvaluator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(repro.synth.synthesis, "HybridEvaluator", reference)
        base = run()
        assert len(built) == 1  # the search really ran on the oracle
        assert sizing_digest(other) == sizing_digest(base)
        assert other.history == base.history
        assert other.equation_evals == base.equation_evals
        assert other.final.cost() == base.final.cost()
