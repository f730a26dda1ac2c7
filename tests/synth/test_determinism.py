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
#: search's decisions: the final sizing and the equation-evaluation count.
#: Cold searches run at budget 60 and seed 1; retargets start from the
#: stage-2 block and run at budget 30 and seed 7; transient verification
#: is off.  These searches were pinned with their cost histories before
#: proposal speculation and the batched DC kernel were removed, and again
#: when the search came to aim at the phase-margin target
#: (``evaluator.PHASE_MARGIN_TARGET``), which moved every cost.  The
#: decisions were split from the histories when the AC read-outs came to
#: solve the bench's free node voltages, which moves costs only in their
#: last bits: the searches make the same decisions, so these are the
#: digests the whole-MNA read-outs gave.  Every seeded search on the
#: default path must land exactly here.
SEARCH_PINS = {
    "anneal-stage0-nom": (
        "84b75c262da32f3c1d1cefe84a9cae7274e998e65deb0e25e80e982d6db96072"
    ),
    "anneal-stage0-slow": (
        "254cc3ab1a88b7157784e4fd54ff0ad57829132a1e99e21af73ea8341541b59a"
    ),
    "anneal-stage1-nom": (
        "3a2ed98797e63a9adcca62dfa9bba0cb36362e1ab1462a41a0949333d13a0e22"
    ),
    "anneal-stage1-slow": (
        "d3e8d19a84a2ed12e7f51ea5ff0954f1697d87a9782fd7f262f78415931e5e32"
    ),
    "anneal-stage2-nom": (
        "54a1d70af578bc5ed611de2588d08f5f28a7dcafc1559f4cb1033b4e3fe82643"
    ),
    "anneal-stage2-slow": (
        "04e36e354d85685bcbb147d4b9a5ba9d187375173615fa28dc6bee8c8be845c9"
    ),
    "de-stage0-nom": (
        "df8b35a4e21eabc3c2dd6e254e6da458d53ccb0c260f515f99278dd0cadbf9a8"
    ),
    "de-stage0-slow": (
        "430522b44449db75c242a7ff678dc136edbdfdfb5009e9df17e7fc8021071b85"
    ),
    "de-stage1-nom": (
        "68ce68c7c8de0bc0a6ca4bb7152487b537e63759a22a0e2a51f464d06ae24933"
    ),
    "de-stage1-slow": (
        "1d3341872c62099465fa491f80b30bf9c7dbbc6b0b8b1ac17981f16b46df035f"
    ),
    "de-stage2-nom": (
        "1d459261b1bbe1a5e0d7a9de59d7662ef9a95e8046d032053e7d494b65400dc2"
    ),
    "de-stage2-slow": (
        "b411a557b32bb6e799db29e71a57c044fa0f8fd751c00b6207117c8a8422105a"
    ),
    "retarget-stage0-nom": (
        "80f9d5307e209082f54f44d433590ba614d2c140835401c2dfb1b2c62a238d8b"
    ),
    "retarget-stage0-slow": (
        "ca6fbbfc35045ffedf95113bf62505d279453b10c45c1b0dff1389883cad48c8"
    ),
    "retarget-stage1-nom": (
        "084d8bf68f73687a6f06d05b53c244da17ef467a26878914f49d51c34b1fdbf8"
    ),
    "retarget-stage1-slow": (
        "be79517472bc4074d619f3648a007c10fc5b04a4f4048e4fc03778eabe2dfa5e"
    ),
}

#: The same searches -> digest of their cost histories, which carry every
#: cost's last bits: re-pinned when the read-outs came to solve the free
#: node voltages.
HISTORY_PINS = {
    "anneal-stage0-nom": (
        "be0bc3a74ece06e679ad2b9a00b86ab5c679bcb92add1a771eb57f37d23a2323"
    ),
    "anneal-stage0-slow": (
        "5ce006a0b854c46c9f46ee677f51e91fa0a4d3fdd6d8b6120ebfecf6082a2edb"
    ),
    "anneal-stage1-nom": (
        "ce954c7d27331e44f93e7ae0d2b5e09031f89eb6c02bcf92ed87fe58253855ea"
    ),
    "anneal-stage1-slow": (
        "d192c636837b2a58c117151b09514004976db34f6ab20b789bc89f88b0c5a44e"
    ),
    "anneal-stage2-nom": (
        "5be8f5004a1af0d298a2639a8e25880c930ed4c921ade9dc429ff4d2ddc77114"
    ),
    "anneal-stage2-slow": (
        "8a727ddad60d6790abe989b0ac4bd60b5e793610aa9ea54fb839f62aa5559a5c"
    ),
    "de-stage0-nom": (
        "6aca5be07b00f22649c95650cfdbccbacb049422399a1702cbae7da9e38cae16"
    ),
    "de-stage0-slow": (
        "ca4b538525aa074d1f22cb722d261904019341631eb1d9001e05c9c6b6e0fd50"
    ),
    "de-stage1-nom": (
        "8bf7e6f2e097463db4a6836b20d286a46775111886152da1f0d4dad55c4becef"
    ),
    "de-stage1-slow": (
        "715baf06903b118a4515c95cb806f65de5dc48f8c52478e810111dfa1a90a947"
    ),
    "de-stage2-nom": (
        "8bee5c74811081a3b7570af4c99fb72f6fa77b40cd7cad5d24649fdadff2aac9"
    ),
    "de-stage2-slow": (
        "a279e96805390942a4032aecd77eb4417d7cd992e17d24a21782d2c3e3afffbf"
    ),
    "retarget-stage0-nom": (
        "f674b206fb6802083b4a92a8bdc8786c1529e61731230d6e86e20e8bef2355e3"
    ),
    "retarget-stage0-slow": (
        "d999d21107f6ba941fd9492f6e7f6dd4aa45f32cb4304da9d44bdb68ecec35cb"
    ),
    "retarget-stage1-nom": (
        "185180a30230362a6600538be99d1a8a1f4264cad36217c38ad35f65e079a5e6"
    ),
    "retarget-stage1-slow": (
        "872d429c92e9ccc2fa46df824ffdc551fdc6e6c97f300ac8ddf5b2ac47710da6"
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


@functools.lru_cache(maxsize=None)
def _search(case: str):
    search, stage, corner = case.split("-")
    mdac, tech = _mdacs()[int(stage.removeprefix("stage"))], CORNERS[corner]
    if search == "retarget":
        return retarget_mdac(
            _donor(corner), mdac, tech, budget=30, seed=7, verify_transient=False
        )
    return synthesize_mdac(
        mdac, tech, budget=60, seed=1, optimizer=search, verify_transient=False
    )


@pytest.mark.parametrize("case", sorted(SEARCH_PINS))
def test_seeded_search_is_pinned(case):
    result = _search(case)
    fingerprint = digest(
        {"sizing": result.final.sizing, "equation_evals": result.equation_evals}
    )
    assert fingerprint == SEARCH_PINS[case]


@pytest.mark.parametrize("case", sorted(HISTORY_PINS))
def test_seeded_search_history_is_pinned(case):
    assert digest({"history": list(_search(case).history)}) == HISTORY_PINS[case]
