"""The behavioral verdict cache: its key, its hits and its misses.

A verdict depends only on the stage plan, draws, seed, mismatch and record
length, so :func:`verdict_key` must change whenever one of them does and
stay put otherwise; :func:`cached_verdict` must hand back exactly the
verdict :func:`verify_candidate` computes, simulated once per cache dir.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.behavioral.verify as verify
from repro.behavioral.verify import (
    VERDICT_DIRNAME,
    MismatchSpec,
    cached_verdict,
    verdict_key,
    verify_candidate,
)
from repro.engine.persist import entry_path, store_result
from repro.enumeration.candidates import enumerate_candidates
from repro.obs import metrics
from repro.specs.adc import AdcSpec
from repro.tech.process import CORNERS

RESOLUTIONS = range(8, 15)
RATES = (20e6, 40e6, 60e6)
FULL_SCALES = (1.0, 2.0)
SIGMAS = st.floats(0.0, 2.0, allow_nan=False)
MISMATCH_FIELDS = tuple(f.name for f in dataclasses.fields(MismatchSpec))
CHANGES = (
    "resolution",
    "rate",
    "full_scale",
    "corner",
    "candidate",
    "draws",
    "seed",
    "samples",
) + MISMATCH_FIELDS


@st.composite
def verdict_inputs(draw):
    """Keyword arguments of one :func:`verdict_key` call."""
    bits = draw(st.sampled_from(RESOLUTIONS))
    return dict(
        spec=AdcSpec(
            resolution_bits=bits,
            sample_rate_hz=draw(st.sampled_from(RATES)),
            full_scale=draw(st.sampled_from(FULL_SCALES)),
            tech=CORNERS[draw(st.sampled_from(sorted(CORNERS)))],
        ),
        candidate=draw(st.sampled_from(enumerate_candidates(bits))),
        draws=draw(st.integers(1, 1000)),
        seed=draw(st.integers(0, 2**32)),
        mismatch=MismatchSpec(
            gain_error_sigma=draw(SIGMAS),
            offset_sigma=draw(SIGMAS),
            dac_error_sigma=draw(SIGMAS),
            noise_sigma=draw(SIGMAS),
            systematic=draw(st.booleans()),
        ),
        samples=draw(st.sampled_from((256, 1024, 2048, 4096))),
    )


def _changed(draw, inputs: dict, change: str) -> dict:
    """``inputs`` with the one quantity named by ``change`` moved."""
    spec, changed = inputs["spec"], dict(inputs)

    def other(values, current):
        return draw(st.sampled_from([v for v in values if v != current]))

    if change == "resolution":
        bits = other(RESOLUTIONS, spec.resolution_bits)
        changed["spec"] = dataclasses.replace(spec, resolution_bits=bits)
        changed["candidate"] = draw(st.sampled_from(enumerate_candidates(bits)))
    elif change == "rate":
        rate = other(RATES, spec.sample_rate_hz)
        changed["spec"] = dataclasses.replace(spec, sample_rate_hz=rate)
    elif change == "full_scale":
        full_scale = other(FULL_SCALES, spec.full_scale)
        changed["spec"] = dataclasses.replace(spec, full_scale=full_scale)
    elif change == "corner":
        changed["spec"] = dataclasses.replace(
            spec, tech=other(CORNERS.values(), spec.tech)
        )
    elif change == "candidate":
        candidates = enumerate_candidates(spec.resolution_bits)
        assume(len(candidates) > 1)
        changed["candidate"] = other(candidates, inputs["candidate"])
    elif change == "draws":
        changed["draws"] = other(range(1, 1001), inputs["draws"])
    elif change == "seed":
        changed["seed"] = inputs["seed"] ^ draw(st.integers(1, 2**32))
    elif change == "samples":
        changed["samples"] = other((256, 1024, 2048, 4096), inputs["samples"])
    else:
        mismatch = inputs["mismatch"]
        current = getattr(mismatch, change)
        if isinstance(current, bool):
            value = not current
        else:
            value = draw(SIGMAS)
            assume(value != current)
        changed["mismatch"] = dataclasses.replace(mismatch, **{change: value})
    return changed


class TestVerdictKey:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), change=st.sampled_from(CHANGES))
    def test_every_input_moves_the_key(self, data, change):
        inputs = data.draw(verdict_inputs())
        changed = _changed(data.draw, inputs, change)
        assert verdict_key(**changed) != verdict_key(**inputs)

    @settings(max_examples=100, deadline=None)
    @given(inputs=verdict_inputs())
    def test_equal_inputs_give_equal_keys(self, inputs):
        # Equal values in new objects.
        twin = dict(
            inputs,
            **{
                name: dataclasses.replace(inputs[name])
                for name in ("spec", "candidate", "mismatch")
            },
        )
        assert verdict_key(**twin) == verdict_key(**inputs)


SPEC = AdcSpec(resolution_bits=10)
(CANDIDATE,) = (c for c in enumerate_candidates(10) if c.label == "3-2")
DRAWS, SEED = 4, 3


def _counters():
    counters = metrics.snapshot()["counters"]
    return (
        counters.get("behavioral.verdict_hits", 0),
        counters.get("behavioral.verdict_misses", 0),
    )


@pytest.fixture
def simulations(monkeypatch):
    """Count the calls that reach :func:`verify_candidate`."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return verify_candidate(*args, **kwargs)

    monkeypatch.setattr(verify, "verify_candidate", counting)
    return calls


def _cached(cache_dir):
    return cached_verdict(SPEC, CANDIDATE, draws=DRAWS, seed=SEED, cache_dir=cache_dir)


class TestCachedVerdict:
    @pytest.fixture(scope="class")
    def reference(self):
        return verify_candidate(SPEC, CANDIDATE, draws=DRAWS, seed=SEED)

    def test_miss_then_hit(self, tmp_path, simulations, reference):
        assert _cached(tmp_path) == reference
        assert (len(simulations), _counters()) == (1, (0, 1))
        key = verdict_key(SPEC, CANDIDATE, draws=DRAWS, seed=SEED)
        assert [p.name for p in (tmp_path / VERDICT_DIRNAME).iterdir()] == [
            entry_path(tmp_path, key).name
        ]
        assert _cached(tmp_path) == reference
        assert (len(simulations), _counters()) == (1, (1, 1))

    def test_without_a_cache_dir_every_call_simulates(self, simulations, reference):
        assert _cached(None) == reference
        assert _cached(None) == reference
        assert (len(simulations), _counters()) == (2, (0, 0))

    @pytest.mark.parametrize("garbage", [b"garbage", b""])
    def test_unreadable_entry_is_resimulated_and_rewritten(
        self, tmp_path, simulations, reference, garbage
    ):
        _cached(tmp_path)
        (entry,) = (tmp_path / VERDICT_DIRNAME).iterdir()
        entry.write_bytes(garbage)
        assert _cached(tmp_path) == reference
        assert _cached(tmp_path) == reference
        assert (len(simulations), _counters()) == (2, (1, 2))

    def test_an_entry_that_is_not_a_verdict_is_a_miss(
        self, tmp_path, simulations, reference
    ):
        key = verdict_key(SPEC, CANDIDATE, draws=DRAWS, seed=SEED)
        store_result(tmp_path / VERDICT_DIRNAME, key, {"sndr_db": (1.0,)})
        assert _cached(tmp_path) == reference
        assert (len(simulations), _counters()) == (1, (0, 1))
