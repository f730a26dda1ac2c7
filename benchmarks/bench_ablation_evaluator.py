"""Ablation: hybrid vs equation-only vs simulation-heavy evaluation.

The paper's argument is that hybrid evaluation (equations for the linear
metrics, simulation for the large-swing settling) is both fast and
trustworthy.  This bench times one synthesis per strategy on the same block
spec and compares outcome quality and transient usage.
"""

import pytest

from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import synthesize_mdac
from repro.synth.evaluator import HybridEvaluator
from repro.synth.space import two_stage_space
from repro.synth.anneal import anneal
from repro.tech import CMOS025


def _block_spec():
    spec = AdcSpec(resolution_bits=13)
    plan = plan_stages(spec, PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[1]  # the 3-bit, 10-bit-accuracy stage


@pytest.mark.slow
def test_hybrid_vs_equation_only(once):
    mdac = _block_spec()

    def hybrid():
        return synthesize_mdac(mdac, CMOS025, budget=250, seed=5, verify_transient=True)

    result = once(hybrid)
    print(f"\nhybrid:        {result.summary()}")
    print(f"  equation evals: {result.equation_evals}, transients: {result.transient_evals}")
    # The hybrid runs orders of magnitude fewer transients than evaluations.
    assert result.transient_evals <= max(6, result.equation_evals // 20)
    assert result.feasible


@pytest.mark.slow
def test_simulation_every_candidate_is_slower(benchmark):
    """Running the transient on every annealing candidate costs ~10-100x."""
    mdac = _block_spec()
    space = two_stage_space(mdac, CMOS025)
    evaluator = HybridEvaluator(mdac, CMOS025, transient_points=200)

    def cost_with_transient(u, reject=None):
        # Every candidate runs its transient, so ``reject`` goes unused.
        return evaluator.evaluate(space.decode(u), run_transient=True).cost()

    def tiny_sim_only_search():
        return anneal(cost_with_transient, space.dimension, budget=12, seed=5)

    run = benchmark.pedantic(tiny_sim_only_search, rounds=1, iterations=1)
    per_eval = benchmark.stats.stats.mean / 12
    print(f"\nsimulation-only: {per_eval*1e3:.1f} ms/eval "
          f"(equation-mode is typically ~5-10 ms/eval)")
    # A transient-per-candidate evaluation costs several times the hybrid's.
    assert per_eval > 0.01
