"""Reproducibility: seeded synthesis must be exactly deterministic."""

import functools

import pytest

from repro.engine.persist import digest
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import synthesize_mdac
from repro.synth.retarget import retarget_mdac
from repro.tech import CMOS025
from repro.tech.process import CMOS025_SLOW

CORNERS = {"nom": CMOS025, "slow": CMOS025_SLOW}

#: Seeded searches over the MDACs of the 13-bit 4-3-2 plan -> digest of the
#: search's own outputs: the final sizing, the cost history and the
#: equation-evaluation count.  Cold searches run at budget 60 and seed 1;
#: retargets start from the stage-2 block and run at budget 30 and seed 7;
#: transient verification is off.  The searches are the ones pinned before
#: proposal speculation and the batched DC kernel were removed; their
#: digests were re-pinned when the search came to aim at the
#: phase-margin target (``evaluator.PHASE_MARGIN_TARGET``), which moves
#: every cost.  Every seeded search on the default path must land exactly
#: here.
SEARCH_PINS = {
    "anneal-stage0-nom": (
        "481479b2b2b08b8393755da589e1f6e7c6c1e9749e6da5b11cbdd0d776f0a0d9"
    ),
    "anneal-stage0-slow": (
        "fe493450dd5c672c641fd13c7af221e4dd1dad58dd08e8fc92be3b1fbfe31c57"
    ),
    "anneal-stage1-nom": (
        "41dbaee8a1cf5324b6a65f0fa36a0766c3929eaadf8c0683d8b6483ee175f45f"
    ),
    "anneal-stage1-slow": (
        "0be70f7eac0157fe2c053623f9976fcdf439acbdbebc58a0e07563698dfae281"
    ),
    "anneal-stage2-nom": (
        "802fc1293be15fd7911914433bb1226b14ca5bcc12664e7778cf52cb35ebab34"
    ),
    "anneal-stage2-slow": (
        "57921c47bafdf9aab8d666312242eadf700fe6d7b6c568fcd68788f4597d1dd1"
    ),
    "de-stage0-nom": (
        "2a3692c12ea89e7b11d3d4aa647ed99601f7fd50d27140f9d072032a122d30c4"
    ),
    "de-stage0-slow": (
        "ebec8ad0728d08a10f12baeca7840786b8e651e1a0caef9f6b99da5a6686ac31"
    ),
    "de-stage1-nom": (
        "9defb6aee1796d1904baa49cb8b61fc25d25622062784bc04bd62ae48c029c73"
    ),
    "de-stage1-slow": (
        "c63db04f9ed1d30ccbfd5e2183a581fad56fa4f075701b642904ec5d0386747f"
    ),
    "de-stage2-nom": (
        "8584bbd8734b6f3ed2dbbf529932e62559334fc8aa3734cc0945f63e28516d5b"
    ),
    "de-stage2-slow": (
        "b2a2cb20331a79b0299a0d9eeda3cf462c7eb36276c64a13cfc117b9be4aa3cf"
    ),
    "retarget-stage0-nom": (
        "03e912f3e7057216871a61db87763d33b0d56952d58c52c4cb2f69d4d23d8388"
    ),
    "retarget-stage0-slow": (
        "0888397e85ac81616b82bed04bbbe14707c101d1a2496211b942bb746f3a3429"
    ),
    "retarget-stage1-nom": (
        "2b9d6c6d46f1fb35c2bd1373fdb50d9ec271cb6db133ef226d648b62f39d5941"
    ),
    "retarget-stage1-slow": (
        "845da1d27976c5afa2e3e52afddaeb7cfa8737a29f1061546cc214d777d8f7d2"
    ),
}


def _mdacs():
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs


def _spec():
    return _mdacs()[2]


@functools.lru_cache(maxsize=None)
def _donor(corner: str):
    return synthesize_mdac(
        _mdacs()[2], CORNERS[corner], budget=60, seed=1, verify_transient=False
    )


def test_same_seed_same_design():
    a = synthesize_mdac(_spec(), CMOS025, budget=120, seed=17, verify_transient=False)
    b = synthesize_mdac(_spec(), CMOS025, budget=120, seed=17, verify_transient=False)
    assert a.final.sizing == b.final.sizing
    assert a.power == b.power
    assert a.history == b.history


def test_different_seed_explores_differently():
    a = synthesize_mdac(_spec(), CMOS025, budget=120, seed=17, verify_transient=False)
    b = synthesize_mdac(_spec(), CMOS025, budget=120, seed=18, verify_transient=False)
    assert a.final.sizing != b.final.sizing


@pytest.mark.parametrize("case", sorted(SEARCH_PINS))
def test_seeded_search_is_pinned(case):
    search, stage, corner = case.split("-")
    mdac, tech = _mdacs()[int(stage.removeprefix("stage"))], CORNERS[corner]
    if search == "retarget":
        result = retarget_mdac(
            _donor(corner), mdac, tech, budget=30, seed=7, verify_transient=False
        )
    else:
        result = synthesize_mdac(
            mdac, tech, budget=60, seed=1, optimizer=search, verify_transient=False
        )
    fingerprint = digest(
        {
            "sizing": result.final.sizing,
            "history": list(result.history),
            "equation_evals": result.equation_evals,
        }
    )
    assert fingerprint == SEARCH_PINS[case]
