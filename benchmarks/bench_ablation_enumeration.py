"""Ablation: the paper's enumeration constraints vs relaxed design spaces.

Quantifies how much the m_i <= 4 bandwidth rule, the monotone (m_i >=
m_{i+1}) area rule, and the 7-bit backend cut shrink the candidate set —
and confirms the constraints do not exclude the true optimum.
"""

from repro.enumeration import enumerate_candidates
from repro.power import candidate_power
from repro.specs import AdcSpec


def count_spaces(k: int = 13) -> dict[str, int]:
    return {
        "paper": len(enumerate_candidates(k)),
        "non_monotone": len(enumerate_candidates(k, monotone=False)),
        "up_to_6bit_stages": len(enumerate_candidates(k, max_stage_bits=6)),
        # No backend: the stages resolve all k bits.
        "full_pipelines": len(enumerate_candidates(k, backend_bits=0)),
        "full_non_monotone": len(enumerate_candidates(k, backend_bits=0, monotone=False)),
    }


def test_constraint_reduction(benchmark):
    counts = benchmark(count_spaces)
    print(f"\n13-bit design-space sizes: {counts}")
    assert counts["paper"] == 7
    assert counts["non_monotone"] > counts["paper"]
    # Without the front-end cut *and* the ordering rule the space explodes
    # into hundreds of full pipelines — the reduction the paper relies on.
    assert counts["full_non_monotone"] > 40 * counts["paper"]


def test_monotone_rule_is_an_area_rule(once):
    """Relaxing m_i >= m_{i+1} exposes 4-2-3, marginally cheaper in power.

    The paper imposes the monotone rule "because of the area factor": a
    power-only model (ours) indeed finds the non-monotone 4-2-3 a few
    percent cheaper, which quantifies what the area rule trades away.
    """
    spec = AdcSpec(resolution_bits=13)

    def best_of(monotone: bool) -> tuple[str, float]:
        best = None
        for cand in enumerate_candidates(13, monotone=monotone):
            power = candidate_power(spec, cand).total_power
            if best is None or power < best[1]:
                best = (cand.label, power)
        return best

    strict = once(best_of, True)
    relaxed = best_of(False)
    print(f"\nmonotone winner: {strict}, relaxed winner: {relaxed}")
    assert strict[0] == "4-3-2"
    assert relaxed[0] == "4-2-3"
    # The power give-up of the area rule is small (< 5%).
    assert strict[1] <= relaxed[1] * 1.05
