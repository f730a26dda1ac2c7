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
#: proposal speculation and the batched DC kernel were removed; these
#: digests were computed before block keys moved to the spec's problem,
#: and the code after that move computes them identically.  Every seeded
#: search on the default path must still land exactly here.
SEARCH_PINS = {
    "anneal-stage0-nom": (
        "6210c9fed9ede3e6807abe67546d03324a49530c47e236da6ce666ac8e32532f"
    ),
    "anneal-stage0-slow": (
        "ed722d58f63e9dadf578992edb0890404c3bd70d76a45403358c99b926b66a84"
    ),
    "anneal-stage1-nom": (
        "3a4ef8fcd4525b61439a4ceb8274c8c16f0c66290c5212187677a7dabc0fd0a8"
    ),
    "anneal-stage1-slow": (
        "20f6dc2efb5018e36c77449bb7a3d51eb1b398d6abdb099fb2a713538b9fa9b4"
    ),
    "anneal-stage2-nom": (
        "423954670c7a6b20f66a4895bc584ccf43873b0bff550ada322daac26a769fb1"
    ),
    "anneal-stage2-slow": (
        "61bc04dae282351dcbfa2725943dfd58921b5617098f1760f13df605aad6be51"
    ),
    "de-stage0-nom": (
        "ace29bc1c1a267259be7daf9c9f97df0fd35448358ce86133e1d88c418b812a7"
    ),
    "de-stage0-slow": (
        "9abd0a6760b7f84eeaa04d272bd7c47983b6a2b81646ba7c39c33c4b8969f978"
    ),
    "de-stage1-nom": (
        "dc64fa178aaed3fff83d47a2f5ee34a39d1b3e0e5200c94b076a17fa81bbe752"
    ),
    "de-stage1-slow": (
        "b61db92658ca0633edd5c77efd458a25971ab3326e1220717652f210d8cc3320"
    ),
    "de-stage2-nom": (
        "2bdd225c43897c2282e67904094b45ce4cda337d71790ef43bcc2eb11280af46"
    ),
    "de-stage2-slow": (
        "20aae6f8eb7cb97933dde7276625d9ff7e17403edaaf66caaf61e1b73a7d2dd5"
    ),
    "retarget-stage0-nom": (
        "b2ae3c57eb07f6cddf6883b658a00ff0cd894a92072cbdce0c6880ca60743b1e"
    ),
    "retarget-stage0-slow": (
        "737122769d451780e951dc2c78ef20f57d16d3541e20e919933d48eb928d97cc"
    ),
    "retarget-stage1-nom": (
        "2c8ac7fd79d3a316e8f04d211118f4dfee432984aff5f35edef9bc20226a75e3"
    ),
    "retarget-stage1-slow": (
        "cd61e77b157c25ccc1aaca5668c4472e81c7b41e00c4b378f000768d0f003e41"
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
