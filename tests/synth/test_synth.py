"""Synthesis-engine tests: optimizers, space, evaluator, end-to-end sizing."""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SynthesisError
from repro.specs import AdcSpec, plan_stages
from repro.synth import (
    DesignVariable,
    HybridEvaluator,
    anneal,
    differential_evolution,
    retarget_mdac,
    synthesize_mdac,
    two_stage_space,
)
from repro.synth.patternsearch import pattern_search
from repro.synth.space import DesignSpace
from repro.tech import CMOS025


def cheap_mdac_spec():
    """The 2-bit, 8-bit-accuracy stage: fastest block to synthesize."""
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[2]


def sphere(x, reject=None):
    return float(np.sum((x - 0.3) ** 2))


def _anneal_with_generator(cost_fn, dimension, budget, seed, wrap=lambda rng: rng):
    """``anneal`` and the generator it drew from, as ``wrap`` returned it."""
    generators = []
    default_rng = np.random.default_rng

    def capture(seed):
        generators.append(wrap(default_rng(seed)))
        return generators[-1]

    with mock.patch.object(np.random, "default_rng", capture):
        result = anneal(cost_fn, dimension=dimension, budget=budget, seed=seed)
    return result, generators[-1]


def pruned_sphere(asked):
    """``sphere`` that hands its exact cost to ``reject`` and prunes on True."""

    def cost(x, reject=None):
        value = sphere(x)
        asked.append(reject)
        if reject is not None and reject(value):
            return math.inf
        return value

    return cost


class TestOptimizers:
    def test_anneal_minimizes_sphere(self):
        run = anneal(sphere, dimension=4, budget=600, seed=2)
        assert run.best_cost < 1e-2
        assert np.allclose(run.best_x, 0.3, atol=0.1)

    def test_anneal_history_monotone(self):
        run = anneal(sphere, dimension=3, budget=200, seed=2)
        assert all(a >= b for a, b in zip(run.history, run.history[1:]))

    def test_anneal_warm_start_converges_faster(self):
        cold = anneal(sphere, dimension=5, budget=300, seed=2)
        warm = anneal(sphere, dimension=5, budget=300, seed=2, x0=np.full(5, 0.31))
        assert warm.evals_to_converge <= cold.evals_to_converge

    def test_anneal_budget_validation(self):
        with pytest.raises(SynthesisError):
            anneal(sphere, dimension=2, budget=1)

    def test_de_minimizes_sphere(self):
        run = differential_evolution(sphere, dimension=4, budget=600, seed=2)
        assert run.best_cost < 1e-2

    def test_de_budget_validation(self):
        with pytest.raises(SynthesisError):
            differential_evolution(sphere, dimension=2, budget=10, population=12)

    def test_pattern_search_polishes(self):
        x, cost, evals = pattern_search(sphere, np.full(4, 0.5), budget=200)
        assert cost < sphere(np.full(4, 0.5))
        assert evals <= 200


class TestRejectProtocol:
    """``cost_fn(x, reject)``: pruning never moves a search."""

    def test_anneal_pruning_keeps_the_trajectory(self):
        asked = []
        plain = anneal(sphere, dimension=4, budget=300, seed=3)
        pruned = anneal(pruned_sphere(asked), dimension=4, budget=300, seed=3)
        assert pruned.history == plain.history
        assert np.array_equal(pruned.best_x, plain.best_x)
        # The start point is compared with nothing; every candidate is.
        assert asked[0] is None and all(r is not None for r in asked[1:])

    def test_pattern_search_pruning_keeps_the_trajectory(self):
        plain = pattern_search(sphere, np.full(4, 0.5), budget=200)
        pruned = pattern_search(pruned_sphere([]), np.full(4, 0.5), budget=200)
        assert np.array_equal(pruned[0], plain[0])
        assert pruned[1:] == plain[1:]

    def test_pruning_happens(self):
        answers = []

        def cost(x, reject=None):
            value = sphere(x)
            if reject is not None:
                answers.append(reject(value))
            return math.inf if answers and answers[-1] else value

        anneal(cost, dimension=3, budget=100, seed=1)
        assert any(answers) and not all(answers)

    def test_nan_bound_never_rejects(self):
        answers = []

        def cost(x, reject=None):
            if reject is not None:
                answers.append(reject(math.nan))
            return sphere(x)

        anneal(cost, dimension=3, budget=30, seed=1)
        pattern_search(cost, np.full(3, 0.5), budget=30)
        assert answers and not any(answers)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dimension=st.integers(1, 4),
        budget=st.integers(2, 40),
        # Each ask's bound as a fraction of the cost, in ask order.
        asks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        prune=st.booleans(),
    )
    def test_asking_more_than_once_moves_nothing(
        self, seed, dimension, budget, asks, prune
    ):
        def asking(x, reject=None):
            value = sphere(x)
            if reject is not None:
                for fraction in asks:
                    if reject(value * fraction) and prune:
                        return math.inf
            return value

        plain, plain_rng = _anneal_with_generator(sphere, dimension, budget, seed)
        asked, asked_rng = _anneal_with_generator(asking, dimension, budget, seed)
        assert np.array_equal(asked.best_x, plain.best_x)
        assert (asked.best_cost, asked.history) == (plain.best_cost, plain.history)
        assert (asked.evaluations, asked.evals_to_converge) == (
            plain.evaluations,
            plain.evals_to_converge,
        )
        assert asked_rng.bit_generator.state == plain_rng.bit_generator.state

    def test_anneal_draws_at_most_one_uniform_per_comparison(self):
        draws = []

        class CountingGenerator:
            """Logs every draw of the generator it wraps: "n"ormal, "r"andom."""

            def __init__(self, rng):
                self._rng = rng

            def normal(self, *args, **kwargs):
                draws.append("n")
                return self._rng.normal(*args, **kwargs)

            def random(self, *args, **kwargs):
                draws.append("r")
                return self._rng.random(*args, **kwargs)

        answers = []

        def cost(x, reject=None):
            value = sphere(x)
            if reject is not None:
                # Three asks per candidate, the last at the exact cost.
                answers.extend(reject(value * f) for f in (0.5, 0.9, 1.0))
            return value

        _anneal_with_generator(cost, 3, 200, seed=4, wrap=CountingGenerator)
        # The start point's draw, then per comparison one step and at most
        # one uniform.
        start, *comparisons = "".join(draws).split("n")
        assert start == "r" and len(comparisons) == 199
        assert set(comparisons) == {"", "r"}
        assert any(answers) and not all(answers)

    def test_anneal_refuses_a_cost_below_a_drawn_bound(self):
        # A bound above the current cost draws the acceptance uniform; a
        # cost at or below the current one would not have drawn it.
        def cost(x, reject=None):
            if reject is not None:
                reject(1e9)
                return -1.0
            return sphere(x)

        with pytest.raises(SynthesisError, match="at or below the current one"):
            anneal(cost, dimension=2, budget=5, seed=1)


class TestDesignSpace:
    def test_variable_mapping_roundtrip(self):
        v = DesignVariable("w", 1e-6, 1e-4)
        for u in (0.0, 0.3, 1.0):
            assert v.to_unit(v.from_unit(u)) == pytest.approx(u, abs=1e-12)

    def test_log_scaling(self):
        v = DesignVariable("w", 1e-6, 1e-4)
        assert v.from_unit(0.5) == pytest.approx(1e-5)

    def test_bad_bounds_rejected(self):
        with pytest.raises(SynthesisError):
            DesignVariable("w", 1e-4, 1e-6)

    def test_space_decode_produces_sizing(self):
        space = two_stage_space(cheap_mdac_spec(), CMOS025)
        sizing = space.decode(np.full(space.dimension, 0.5))
        assert sizing.i_tail > 0
        assert sizing.w_input >= CMOS025.wmin

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-0.5, max_value=1.5)
            | st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
            min_size=2,
            max_size=2,
        )
    )
    def test_decode_is_from_unit_bit_for_bit(self, coordinates):
        # A log and a linear variable; decode binds their constants once.
        variables = [
            DesignVariable("log", 1.3e-6, 7.1e-5),
            DesignVariable("lin", 0.3, 4.7, log_scale=False),
        ]
        space = DesignSpace(variables, dict)
        got = space.decode(np.asarray(coordinates))
        want = {v.name: v.from_unit(float(u)) for v, u in zip(variables, coordinates)}
        assert list(got) == list(want)
        for name, value in want.items():
            assert (math.isnan(value) and math.isnan(got[name])) or (
                struct.pack("<d", got[name]) == struct.pack("<d", value)
            )

    def test_space_bounds_scale_with_spec(self):
        plan = plan_stages(
            AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
        )
        hard = two_stage_space(plan.mdacs[0], CMOS025)  # 4-bit @ 13 bits
        easy = two_stage_space(plan.mdacs[2], CMOS025)
        i_hard = next(v for v in hard.variables if v.name == "i_tail")
        i_easy = next(v for v in easy.variables if v.name == "i_tail")
        assert i_hard.high > i_easy.high  # harder spec allows more current


class TestEvaluator:
    def test_nominal_point_evaluates(self):
        mdac = cheap_mdac_spec()
        space = two_stage_space(mdac, CMOS025)
        evaluator = HybridEvaluator(mdac, CMOS025)
        result = evaluator.evaluate(space.decode(np.full(space.dimension, 0.5)))
        assert result.dc_ok
        assert result.power > 0
        assert result.dc_gain > 100

    def test_cost_penalizes_infeasibility(self):
        mdac = cheap_mdac_spec()
        space = two_stage_space(mdac, CMOS025)
        evaluator = HybridEvaluator(mdac, CMOS025)
        # A starved design (lowest current) must cost more than a mid one
        # once penalties are applied, despite burning less power.
        starved = evaluator.evaluate(space.decode(np.zeros(space.dimension)))
        mid = evaluator.evaluate(space.decode(np.full(space.dimension, 0.5)))
        assert starved.power < mid.power
        assert starved.cost() > mid.cost() or starved.feasible

    def test_transient_counter_increments(self):
        mdac = cheap_mdac_spec()
        space = two_stage_space(mdac, CMOS025)
        evaluator = HybridEvaluator(mdac, CMOS025, transient_points=150)
        evaluator.evaluate(space.decode(np.full(space.dimension, 0.6)), run_transient=True)
        assert evaluator.transient_evals == 1
        assert evaluator.equation_evals == 1


class TestEndToEnd:
    def test_synthesize_cheap_block(self):
        result = synthesize_mdac(
            cheap_mdac_spec(), CMOS025, budget=200, seed=3, verify_transient=True
        )
        assert result.feasible, result.summary()
        assert result.final.settling_error <= result.spec.settling_error
        assert 0.05e-3 < result.power < 10e-3

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(SynthesisError):
            synthesize_mdac(cheap_mdac_spec(), CMOS025, budget=50, optimizer="gradient")

    def test_retarget_reuses_previous_solution(self):
        plan = plan_stages(
            AdcSpec(resolution_bits=13), PipelineCandidate((4, 2, 2, 2), 13, 7)
        )
        cold = synthesize_mdac(plan.mdacs[3], CMOS025, budget=200, seed=3,
                               verify_transient=False)
        warm = retarget_mdac(cold, plan.mdacs[2], CMOS025, budget=40,
                             verify_transient=False)
        assert warm.retargeted
        assert warm.equation_evals < cold.equation_evals
        assert warm.final.dc_ok
