"""Reproduction assertions: the paper's Section 4 findings must hold.

These tests pin the calibrated analytic model to the paper's qualitative
results (see EXPERIMENTS.md for the quantitative comparison):

* Fig. 2 optima: 3-2... (10b), 4-2... (11b), 4-2-2... (12b), 4-3-2... (13b);
* a 2-bit last front-end stage is optimal at every resolution;
* Fig. 1: first-stage power is nearly independent of the first-stage
  resolution for the main 13-bit candidates;
* the 2-2-2-2-2-2 chain is the worst 13-bit configuration by a wide margin.
"""

import pytest

from repro.enumeration import enumerate_candidates
from repro.power import candidate_power
from repro.specs import AdcSpec

PAPER_WINNERS = {10: "3-2", 11: "4-2", 12: "4-2-2", 13: "4-3-2"}


def ranked(k):
    spec = AdcSpec(resolution_bits=k)
    return sorted(
        (candidate_power(spec, c) for c in enumerate_candidates(k)),
        key=lambda cp: cp.total_power,
    )


class TestFig2Winners:
    @pytest.mark.parametrize("k", [10, 11, 12, 13])
    def test_paper_winner(self, k):
        assert ranked(k)[0].candidate.label == PAPER_WINNERS[k]

    @pytest.mark.parametrize("k", [10, 11, 12, 13])
    def test_two_bit_last_stage_is_optimal(self, k):
        assert ranked(k)[0].candidate.resolutions[-1] == 2

    def test_all_2s_chain_is_worst_at_13_bits(self):
        order = ranked(13)
        assert order[-1].candidate.label == "2-2-2-2-2-2"
        # ... by a wide margin: at least 1.5x the runner-up.
        assert order[-1].total_power > 1.5 * order[-2].total_power

    def test_4_4_loses_to_4_3_2_at_13_bits(self):
        powers = {cp.candidate.label: cp.total_power for cp in ranked(13)}
        assert powers["4-3-2"] < powers["4-4"]

    def test_13_bit_magnitude_is_tens_of_mw(self):
        best = ranked(13)[0]
        assert 5e-3 < best.total_power < 100e-3


class TestFig1StageOneFlatness:
    def test_first_stage_power_nearly_independent_of_m1(self):
        spec = AdcSpec(resolution_bits=13)
        stage1 = {
            c.label: candidate_power(spec, c).stages[0].total_power * 1e3
            for c in enumerate_candidates(13)
        }
        # Among the main candidates the spread stays within ~50%.
        core = [v for k, v in stage1.items() if k != "2-2-2-2-2-2"]
        assert max(core) / min(core) < 1.5
        # Even including the all-2s outlier the spread is bounded.
        assert max(stage1.values()) / min(stage1.values()) < 2.5

    def test_stage_power_decreases_along_pipeline(self):
        spec = AdcSpec(resolution_bits=13)
        for cand in enumerate_candidates(13):
            mw = [s.total_power * 1e3 for s in candidate_power(spec, cand).stages]
            assert all(a >= b for a, b in zip(mw, mw[1:])), cand.label


class TestResolutionTrend:
    def test_optimal_first_stage_resolution_grows_with_k(self):
        # Fig. 3's designer rule: coarser targets take smaller first stages.
        first_bits = {k: ranked(k)[0].candidate.resolutions[0] for k in (10, 11, 12, 13)}
        assert first_bits[10] == 3
        assert first_bits[11] == first_bits[12] == first_bits[13] == 4

    def test_total_power_monotone_in_resolution(self):
        totals = [ranked(k)[0].total_power for k in (10, 11, 12, 13)]
        assert all(a < b for a, b in zip(totals, totals[1:]))
