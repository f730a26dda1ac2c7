"""Persistent block cache: fingerprints, round-trips, corruption handling."""

import hashlib
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.config import FlowConfig
from repro.engine.persist import (
    block_fingerprint,
    entry_path,
    load_result,
    store_result,
)
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError
from repro.flow.cache import PersistentBlockCache
from repro.flow.topology import optimize_topology
from repro.specs.adc import AdcSpec
from repro.specs.stage import plan_stages
from repro.tech import CMOS025

SPEC13 = AdcSpec(resolution_bits=13)
CANDIDATES = [PipelineCandidate((4, 3, 2), 13, 7)]


def _mdac(index: int = 0):
    return plan_stages(SPEC13, CANDIDATES[0]).mdacs[index]


def _cache(tmp_path, **overrides):
    kwargs = dict(
        tech=CMOS025,
        budget=60,
        retarget_budget=30,
        verify_transient=False,
        cache_dir=str(tmp_path),
    )
    kwargs.update(overrides)
    return PersistentBlockCache(**kwargs)


class TestFingerprint:
    def test_stable_for_identical_inputs(self):
        a = block_fingerprint(_mdac(), CMOS025, budget=60, seed=1, verify_transient=False)
        b = block_fingerprint(_mdac(), CMOS025, budget=60, seed=1, verify_transient=False)
        assert a == b

    def test_sensitive_to_every_knob(self):
        base = dict(budget=60, seed=1, verify_transient=False)
        reference = block_fingerprint(_mdac(), CMOS025, **base)
        assert block_fingerprint(_mdac(1), CMOS025, **base) != reference
        assert (
            block_fingerprint(_mdac(), CMOS025, budget=61, seed=1, verify_transient=False)
            != reference
        )
        assert (
            block_fingerprint(_mdac(), CMOS025, budget=60, seed=2, verify_transient=False)
            != reference
        )
        assert (
            block_fingerprint(_mdac(), CMOS025, budget=60, seed=1, verify_transient=True)
            != reference
        )


class TestDiskLayer:
    def test_store_load_roundtrip(self, tmp_path):
        store_result(tmp_path, "abc123", {"power": 1.5})
        assert load_result(tmp_path, "abc123") == {"power": 1.5}

    def test_missing_entry_is_none(self, tmp_path):
        assert load_result(tmp_path, "nope") is None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        path = entry_path(tmp_path, "bad")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        assert load_result(tmp_path, "bad") is None


class TestPersistentBlockCache:
    def test_requires_cache_dir(self):
        with pytest.raises(SpecificationError):
            PersistentBlockCache(tech=CMOS025)

    def test_roundtrip_through_fresh_cache(self, tmp_path):
        first = _cache(tmp_path)
        result = first.get(_mdac())
        assert first.cold_runs == 1
        assert first.persistent_hits == 0

        # A brand-new cache object over the same directory serves the block
        # from disk: no search, identical design.
        reloaded = _cache(tmp_path)
        warm = reloaded.get(_mdac())
        assert reloaded.persistent_hits == 1
        assert reloaded.cold_runs == 0 and reloaded.retargeted_runs == 0
        assert warm.power == result.power
        assert warm.final.sizing == result.final.sizing

    def test_warm_flow_run_does_no_search(self, tmp_path):
        cfg = FlowConfig(
            budget=60,
            retarget_budget=30,
            verify_transient=False,
            cache_dir=str(tmp_path),
        )
        cold = optimize_topology(
            SPEC13, mode="synthesis", candidates=CANDIDATES, config=cfg
        )

        warm_cache = _cache(tmp_path)
        warm = optimize_topology(
            SPEC13,
            mode="synthesis",
            candidates=CANDIDATES,
            cache=warm_cache,
        )
        assert warm_cache.synthesis_runs == 0
        assert warm_cache.persistent_hits == warm.unique_blocks == cold.unique_blocks
        assert warm.power_table() == cold.power_table()

    def test_corrupt_entry_triggers_resynthesis(self, tmp_path):
        first = _cache(tmp_path)
        first.get(_mdac())
        # Corrupt every entry on disk.
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"garbage")
        again = _cache(tmp_path)
        again.get(_mdac())
        assert again.persistent_hits == 0
        assert again.cold_runs == 1

    def test_budget_change_misses(self, tmp_path):
        _cache(tmp_path).get(_mdac())
        other = _cache(tmp_path, budget=61)
        other.get(_mdac())
        assert other.persistent_hits == 0
        assert other.cold_runs == 1


def _raise(exc):
    raise exc


class _RaisesOnLoad:
    """Pickles fine; unpickling raises ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    def __reduce__(self):
        return _raise, (self.exc,)


def _framed(data: bytes) -> bytes:
    """``data`` in the entry frame, with a checksum that matches it."""
    return hashlib.sha256(data).digest() + data


@pytest.fixture(scope="module")
def real_entry(tmp_path_factory):
    """One synthesized block: its entry's file name and bytes, and the block."""
    directory = tmp_path_factory.mktemp("real-entry")
    result = _cache(directory).get(_mdac())
    (path,) = directory.iterdir()
    return path.name, path.read_bytes(), result


def _corruptions(entry: bytes):
    """Arbitrary bytes, truncations and byte flips of ``entry``."""
    flips = st.tuples(
        st.integers(0, len(entry) - 1), st.integers(1, 255)
    ).map(
        lambda flip: entry[: flip[0]]
        + bytes([entry[flip[0]] ^ flip[1]])
        + entry[flip[0] + 1 :]
    )
    truncations = st.integers(0, len(entry) - 1).map(lambda n: entry[:n])
    return st.one_of(st.binary(max_size=4096), truncations, flips)


class TestCorruptEntries:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupt_entries_load_as_misses(self, real_entry, data):
        _, entry, _ = real_entry
        corrupt = data.draw(_corruptions(entry))
        with tempfile.TemporaryDirectory() as directory:
            entry_path(directory, "fp").write_bytes(corrupt)
            assert load_result(directory, "fp") is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry: b"garbage",
            lambda entry: entry[: len(entry) // 2],
            lambda entry: entry[:-1] + bytes([entry[-1] ^ 0x01]),
            lambda entry: entry[32:],  # an entry without its checksum
        ],
        ids=["garbage", "truncated", "flipped", "unframed"],
    )
    def test_next_run_rewrites_the_entry(self, tmp_path, real_entry, corrupt):
        name, entry, result = real_entry
        path = tmp_path / name
        path.write_bytes(corrupt(entry))
        again = _cache(tmp_path)
        rebuilt = again.get(_mdac())
        assert (again.persistent_hits, again.cold_runs) == (0, 1)
        assert rebuilt.final.sizing == result.final.sizing
        reloaded = load_result(tmp_path, path.stem)
        assert reloaded.final.sizing == result.final.sizing
        assert reloaded.power == result.power
        third = _cache(tmp_path)
        third.get(_mdac())
        assert (third.persistent_hits, third.cold_runs) == (1, 0)

    @pytest.mark.parametrize(
        "exc",
        [
            TypeError("t"),
            MemoryError(),
            OverflowError("o"),
            RuntimeError("r"),
            RecursionError("deep"),
            ValueError("v"),
            ModuleNotFoundError("m"),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_any_exception_while_unpickling_is_a_miss(self, tmp_path, exc):
        entry_path(tmp_path, "fp").write_bytes(
            _framed(pickle.dumps(_RaisesOnLoad(exc)))
        )
        assert load_result(tmp_path, "fp") is None

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupts_propagate(self, tmp_path, exc):
        entry_path(tmp_path, "fp").write_bytes(
            _framed(pickle.dumps(_RaisesOnLoad(exc())))
        )
        with pytest.raises(exc):
            load_result(tmp_path, "fp")
