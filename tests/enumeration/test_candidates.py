"""Candidate enumeration tests: the paper's Section 2 rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import enumerate_candidates
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import EnumerationError


class TestPaperCandidateSets:
    def test_13_bit_gives_the_papers_seven(self):
        labels = {c.label for c in enumerate_candidates(13)}
        assert labels == {
            "4-4",
            "4-3-2",
            "4-2-2-2",
            "3-3-3",
            "3-3-2-2",
            "3-2-2-2-2",
            "2-2-2-2-2-2",
        }

    def test_candidate_counts_10_to_13(self):
        # 3, 4, 5 and 7 candidates for 10..13 bits.
        counts = [len(enumerate_candidates(k)) for k in (10, 11, 12, 13)]
        assert counts == [3, 4, 5, 7]

    def test_frontend_resolves_k_minus_7_bits(self):
        for k in (10, 11, 12, 13):
            for cand in enumerate_candidates(k):
                assert cand.frontend_bits == k - 7

    def test_sorted_most_aggressive_first(self):
        labels = [c.label for c in enumerate_candidates(13)]
        assert labels[0] == "4-4"
        assert labels[-1] == "2-2-2-2-2-2"


class TestConstraints:
    def test_max_stage_bits_respected(self):
        for cand in enumerate_candidates(13):
            assert all(m <= 4 for m in cand.resolutions)

    def test_monotone_non_increasing(self):
        for cand in enumerate_candidates(13):
            assert all(a >= b for a, b in zip(cand.resolutions, cand.resolutions[1:]))

    def test_relaxing_monotone_adds_candidates(self):
        strict = enumerate_candidates(13, monotone=True)
        relaxed = enumerate_candidates(13, monotone=False)
        assert len(relaxed) > len(strict)
        labels = {c.label for c in relaxed}
        assert "2-3-4" in labels  # a non-monotone permutation now allowed

    def test_relaxing_max_bits_adds_candidates(self):
        wider = enumerate_candidates(13, max_stage_bits=5)
        assert any(max(c.resolutions) == 5 for c in wider)

    def test_infeasible_target_raises(self):
        with pytest.raises(EnumerationError):
            enumerate_candidates(7)  # equals backend_bits

    def test_bad_stage_bounds_raise(self):
        with pytest.raises(EnumerationError):
            enumerate_candidates(13, min_stage_bits=1)
        with pytest.raises(EnumerationError):
            enumerate_candidates(13, min_stage_bits=4, max_stage_bits=3)


class TestBookkeeping:
    def test_effective_bits(self):
        cand = PipelineCandidate((4, 3, 2), 13, 7)
        assert cand.effective_bits == (3, 2, 1)
        assert cand.frontend_bits == 6

    def test_accuracy_chain(self):
        cand = PipelineCandidate((4, 3, 2), 13, 7)
        assert [cand.input_accuracy_bits(i) for i in range(3)] == [13, 10, 8]
        assert [cand.output_accuracy_bits(i) for i in range(3)] == [10, 8, 7]

    def test_stage_gains(self):
        cand = PipelineCandidate((4, 3, 2), 13, 7)
        assert [cand.stage_gain(i) for i in range(3)] == [8, 4, 2]

    def test_label(self):
        assert PipelineCandidate((4, 2, 2), 12, 7).label == "4-2-2"

    def test_out_of_range_stage_index(self):
        cand = PipelineCandidate((4, 3, 2), 13, 7)
        with pytest.raises(EnumerationError):
            cand.bits_resolved_before(3)

    def test_invalid_candidate_rejected(self):
        with pytest.raises(EnumerationError):
            PipelineCandidate((), 13, 7)
        with pytest.raises(EnumerationError):
            PipelineCandidate((4, 1), 13, 7)


class TestFullPipelines:
    """With no backend the stages resolve every bit: the space the paper prunes."""

    def test_full_pipeline_resolves_all_bits(self):
        for cand in enumerate_candidates(10, backend_bits=0):
            assert cand.frontend_bits == 10

    def test_full_pipeline_space_is_larger(self):
        assert len(enumerate_candidates(13, backend_bits=0)) > len(enumerate_candidates(13))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(min_value=8, max_value=15))
    def test_all_candidates_unique(self, k):
        cands = enumerate_candidates(k)
        assert len({c.resolutions for c in cands}) == len(cands)

    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(min_value=8, max_value=15))
    def test_enumeration_complete_vs_bruteforce(self, k):
        # Brute force all non-increasing tuples over {2,3,4} up to length 8.
        import itertools

        target = k - 7
        expected = set()
        for n in range(1, target + 1):
            for combo in itertools.product((4, 3, 2), repeat=n):
                if sum(m - 1 for m in combo) != target:
                    continue
                if any(a < b for a, b in zip(combo, combo[1:])):
                    continue
                expected.add(combo)
        got = {c.resolutions for c in enumerate_candidates(k)}
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(min_value=8, max_value=15))
    def test_accuracy_bookkeeping_consistent(self, k):
        for cand in enumerate_candidates(k):
            for i in range(cand.stage_count):
                assert (
                    cand.output_accuracy_bits(i)
                    == cand.input_accuracy_bits(i) - cand.effective_bits[i]
                )
            assert cand.output_accuracy_bits(cand.stage_count - 1) == 7
