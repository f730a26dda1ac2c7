"""The equations carry the settling predictor the transient checks.

A search aims at the loop bandwidth ``closed_loop_bw_hz`` and the phase
margin :data:`~repro.synth.evaluator.PHASE_MARGIN_TARGET`, and hands the
polished design to a settling transient.  Feasibility is unchanged: the
transient judges, and the phase margin must keep the robustness floor
:data:`~repro.synth.evaluator.PHASE_MARGIN_MIN`.  A transient that misses
while every other constraint holds gets one re-search for a faster loop
and one more transient, never more.
"""

import math

import numpy as np
import pytest

import repro.engine.scheduler as scheduler
import repro.synth.synthesis as synthesis
from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import synthesize_mdac, two_stage_space
from repro.synth.evaluator import (
    PHASE_MARGIN_MIN,
    PHASE_MARGIN_TARGET,
    EvalResult,
    HybridEvaluator,
)
from repro.tech import CMOS025

#: The searches of a cold synthesis-mode Fig. 2 campaign (K = 10..13,
#: 40 MSPS) at the default budgets and seeds, their settling transients,
#: and the searches whose first transient met the settling error.  Aiming
#: at the 50-degree floor with a 1.30x repair ladder, the same campaign ran
#: 24 searches and 55 transients, and 5 first transients passed.
FIG2_SEARCHES = 22
FIG2_TRANSIENTS = 23
FIG2_FIRST_PASS = 17


def _mdacs():
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs


def test_first_transient_meets_the_settling_error_on_the_fig2_campaign(monkeypatch):
    searches = []
    real = scheduler.run_synthesis_job

    def logged(job):
        result = real(job)
        searches.append((result, job.spec.problem.settling_error))
        return result

    monkeypatch.setattr(scheduler, "run_synthesis_job", logged)
    grid = CampaignGrid(resolutions=(10, 11, 12, 13), modes=("synthesis",))
    campaign = run_campaign(grid, FlowConfig())
    assert [r.winner for r in campaign.records[:3]] == ["3-2", "4-2", "4-2-2"]

    assert len(searches) == FIG2_SEARCHES
    transients = [result.transient_evals for result, _ in searches]
    assert sum(transients) == FIG2_TRANSIENTS
    assert max(transients) == 2
    first_pass = sum(
        result.transient_evals == 1 and result.final.settling_error <= eps
        for result, eps in searches
    )
    assert first_pass == FIG2_FIRST_PASS
    assert first_pass >= 0.7 * FIG2_SEARCHES


def _result(phase_margin, violations):
    return EvalResult(
        sizing=None,
        power=1e-3,
        dc_gain=1e4,
        loop_unity_hz=1e8,
        phase_margin=phase_margin,
        saturation_margin=0.1,
        settling_error=None,
        dc_ok=True,
        violations=violations,
    )


class TestPhaseMarginTarget:
    @pytest.mark.parametrize("pm", [55.0, PHASE_MARGIN_MIN - 5.0])
    def test_the_cost_counts_the_shortfall_below_the_target(self, pm):
        floor = (PHASE_MARGIN_MIN - pm) / PHASE_MARGIN_MIN
        result = _result(pm, {"dc_gain": -0.5, "phase_margin": floor})
        short = (PHASE_MARGIN_TARGET - pm) / PHASE_MARGIN_TARGET
        linear = max(0.0, floor) + short
        quadratic = max(0.0, floor) ** 2 + short**2
        assert result.cost() == 1.0 + 50.0 * linear + 500.0 * quadratic
        # Feasibility reads only the floor.
        assert result.feasible is (floor <= 0.0)

    def test_no_shortfall_at_or_above_the_target(self):
        for pm in (PHASE_MARGIN_TARGET, PHASE_MARGIN_TARGET + 10.0):
            result = _result(pm, {"phase_margin": (PHASE_MARGIN_MIN - pm) / PHASE_MARGIN_MIN})
            assert result.cost() == 1.0
        assert _result(None, {"phase_margin": 1.0}).cost() == 1.0 + 50.0 + 500.0

    def test_the_evaluator_measures_the_floor_from_the_loop_margin(self):
        problem = _mdacs()[2].problem
        space = two_stage_space(problem, CMOS025)
        evaluator = HybridEvaluator(problem, CMOS025)
        result = evaluator.evaluate(space.decode(np.full(space.dimension, 0.5)))
        pm = result.phase_margin
        assert pm is not None
        assert result.violations["phase_margin"] == (PHASE_MARGIN_MIN - pm) / PHASE_MARGIN_MIN
        assert PHASE_MARGIN_TARGET > PHASE_MARGIN_MIN

    def test_a_required_bandwidth_moves_only_the_bandwidth_term(self):
        problem = _mdacs()[2].problem
        space = two_stage_space(problem, CMOS025)
        evaluator = HybridEvaluator(problem, CMOS025)
        sizing = space.decode(np.full(space.dimension, 0.5))
        base = evaluator.evaluate(sizing)
        faster = 2.0 * problem.closed_loop_bw_hz
        evaluator.require_bandwidth(faster)
        strict = evaluator.evaluate(sizing)
        assert strict.violations["bandwidth"] == (faster - strict.loop_unity_hz) / faster
        assert {k: v for k, v in strict.violations.items() if k != "bandwidth"} == {
            k: v for k, v in base.violations.items() if k != "bandwidth"
        }
        evaluator.require_bandwidth(problem.closed_loop_bw_hz)
        assert evaluator.evaluate(sizing).violations == base.violations


class TestFallback:
    @pytest.fixture
    def seen(self, monkeypatch):
        """Each settling transient's error, and each bandwidth required."""
        seen = {"transients": [], "bandwidths": []}

        class Recording(HybridEvaluator):
            def _transient_settling(self, sizing):
                error = super()._transient_settling(sizing)
                seen["transients"].append(error)
                return error

            def require_bandwidth(self, hz):
                seen["bandwidths"].append(hz)
                super().require_bandwidth(hz)

        monkeypatch.setattr(synthesis, "HybridEvaluator", Recording)
        return seen

    def test_a_mispredicted_search_re_searches_once_for_a_faster_loop(self, seen):
        mdac = _mdacs()[2]
        result = synthesize_mdac(mdac, CMOS025, budget=200, seed=3)
        eps, bw = mdac.settling_error, mdac.closed_loop_bw_hz
        first, second = seen["transients"]
        assert first > eps
        # The re-search asks for a loop faster by the time constants the
        # first transient missed, and the verdict is judged as before.
        faster = bw * (1.0 + math.log(first / eps) / -math.log(eps))
        assert seen["bandwidths"] == [faster, bw]
        assert result.transient_evals == 2
        assert result.final.settling_error == second <= eps
        assert result.feasible

    def test_a_search_that_misses_the_equations_is_not_re_searched(self, seen):
        # The 4-bit first stage misses its equation constraints at this
        # budget; a faster loop would not make it feasible.
        result = synthesize_mdac(_mdacs()[0], CMOS025, budget=30, seed=1)
        assert len(seen["transients"]) == result.transient_evals == 1
        assert seen["bandwidths"] == []
        assert any(
            v > 0 for k, v in result.final.violations.items() if k != "settling"
        )

    def test_no_transient_no_fallback(self, seen):
        result = synthesize_mdac(
            _mdacs()[2], CMOS025, budget=200, seed=3, verify_transient=False
        )
        assert seen == {"transients": [], "bandwidths": []}
        assert result.transient_evals == 0
        assert result.final.settling_error is None
