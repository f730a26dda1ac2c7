"""Persistent block cache: fingerprints, digests, round-trips, corruption handling."""

import dataclasses
import enum
import hashlib
import math
import pickle
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import persist
from repro.engine.config import FlowConfig
from repro.engine.persist import (
    block_fingerprint,
    digest,
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
from tests.engine import persist_reference

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


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class Frozen:
    a: Any
    b: Any = 0.0


@dataclasses.dataclass
class Loose:
    x: Any
    y: Any = None


@dataclasses.dataclass(frozen=True)
class Tagged:
    """Its keys sort around the class tag: "Zeta" < "__dataclass__" < "alpha"."""

    Zeta: Any
    alpha: Any


@dataclasses.dataclass(frozen=True)
class Unset:
    ready: float = 1.0
    later: float = dataclasses.field(init=False)


class BadRepr:
    def __repr__(self):
        raise LookupError("no repr")


def _outcome(fn, payload):
    """``fn(payload)``, or the type of the exception it raised."""
    try:
        return fn(payload)
    except Exception as exc:
        return type(exc)


def _oracle_text(payload) -> str:
    return persist_reference.text(payload)


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1.5]
    ),
)
LEAVES = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["", "\u00e9t\u00e9", "\u03b2\u00b7A", "\ud800", '"\\\n', "\x00"]),
    st.sampled_from(list(Level)),
    st.text(max_size=6).map(Path),
    st.binary(max_size=3),
)


def _nodes(children):
    int_keys = st.one_of(st.integers(-3, 3), st.sampled_from(list(Level)))
    mixed_keys = st.one_of(st.integers(0, 2), st.text(max_size=1))
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        children.map(lambda child: (child, child)),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(int_keys, children, max_size=4),
        # Mixed int and str keys do not sort: both encoders must refuse.
        st.dictionaries(mixed_keys, children, max_size=3),
        st.builds(Frozen, children, children),
        st.builds(Loose, children, children),
        st.builds(Tagged, children, children),
    )


TREES = st.recursive(LEAVES, _nodes, max_leaves=24)


class TestDigestEncoding:
    """``digest`` hashes the text the two-pass oracle produced, byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(tree=TREES)
    def test_digest_matches_the_oracle(self, tree):
        expected = _outcome(persist_reference.digest, tree)
        assert _outcome(digest, tree) == expected
        # Again, now that the frozen parts of the tree are memoized.
        assert _outcome(digest, tree) == expected

    @settings(max_examples=200, deadline=None)
    @given(tree=TREES)
    def test_text_matches_the_oracle(self, tree):
        try:
            expected = _oracle_text(tree)
        except Exception:
            return
        assert persist._encode(tree) == expected

    def test_flow_payloads_match_the_oracle(self):
        mdacs = plan_stages(SPEC13, CANDIDATES[0]).mdacs
        payloads = [
            CMOS025,
            mdacs,
            {"spec": mdacs[0], "tech": CMOS025, "verify_transient": True},
            FlowConfig(),
            Path("/tmp/x"),
            "plain",
            -0.0,
            None,
        ]
        for payload in payloads:
            assert persist._encode(payload) == _oracle_text(payload)
            assert digest(payload) == persist_reference.digest(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            [10**5000],
            Frozen(10**5000),
            [10**5000, {1: 0.0, "a": 0.0}],
            [{1: 0.0, "a": 0.0}, 10**5000],
            [10**5000, BadRepr()],
            [Unset(), 10**5000],
            Frozen(BadRepr()),
            Unset(),
            {1: 0.0, "a": 0.0},
        ],
        ids=[
            "long-int",
            "long-int-in-frozen",
            "long-int-then-unsortable",
            "unsortable-then-long-int",
            "long-int-then-bad-repr",
            "unset-field-then-long-int",
            "bad-repr-in-frozen",
            "unset-field",
            "unsortable-keys",
        ],
    )
    def test_raises_where_the_oracle_raises(self, payload):
        expected = _outcome(persist_reference.digest, payload)
        assert isinstance(expected, type) and issubclass(expected, Exception)
        assert _outcome(digest, payload) is expected
        assert _outcome(digest, payload) is expected

    def test_a_cycle_raises_like_the_oracle(self):
        loop = []
        loop.append(Loose(loop))
        assert _outcome(persist_reference.digest, loop) is RecursionError
        assert _outcome(digest, loop) is RecursionError


def _entry(value):
    entry = persist._MEMO.get(id(value))
    return entry if entry is not None and entry() is value else None


class TestDigestMemo:
    """Only deep-frozen values are remembered, and only for their own lifetime."""

    def test_deep_frozen_values_are_encoded_once(self):
        mdac = _mdac()
        digest({"spec": mdac, "tech": CMOS025})
        assert _entry(CMOS025) is not None and _entry(CMOS025.nmos) is not None
        assert _entry(mdac) is not None and _entry(mdac.caps) is not None
        assert _entry(mdac).text == _oracle_text(mdac)
        # A memoized text is served as is: no field is read again.
        assert persist._encode(mdac) is _entry(mdac).text

    def test_mutable_parts_are_never_memoized(self):
        inner = Frozen(2.0)
        holds_list = Frozen([1.0], inner)
        holds_loose = Frozen(Loose(1.0), (inner, 3))
        loose = Loose(inner)
        for value in (holds_list, holds_loose, loose):
            assert digest(value) == persist_reference.digest(value)
            assert _entry(value) is None
        assert _entry(inner) is not None
        settled = Frozen((inner, 1, "s", None, True), Level.LOW)
        digest(settled)
        # An IntEnum is an int subclass, not an exact leaf.
        assert _entry(settled) is None
        settled = Frozen((inner, 1, "s", None, True), -0.0)
        digest(settled)
        assert _entry(settled).text == _oracle_text(settled)

    @pytest.mark.parametrize(
        "nest", [lambda items: items, lambda items: (1.0, (items,))], ids=["list", "tuple"]
    )
    def test_mutating_a_list_inside_a_frozen_value_moves_its_digest(self, nest):
        items = [1.0]
        value = Frozen(nest(items), Frozen((2.0, "x")))
        before = digest(value)
        items.append(3.0)
        after = digest(value)
        assert before != after
        assert after == persist_reference.digest(value)

    def test_mutating_a_loose_value_inside_a_frozen_value_moves_its_digest(self):
        value = Frozen(Loose(1.0), Frozen(2.0))
        before = digest(value)
        value.a.x = 4.0
        assert digest(value) != before
        assert digest(value) == persist_reference.digest(value)

    def test_reused_ids_never_see_a_dead_values_text(self):
        seen: set[int] = set()
        reused = 0
        for n in range(2000):
            value = Frozen(float(n), (n, Frozen(str(n))))
            reused += id(value) in seen
            seen.add(id(value))
            assert digest(value) == persist_reference.digest(value)
            del value
        assert reused  # the allocator did hand out recycled ids

    def test_an_entry_serves_only_its_own_value(self):
        # The weakref guard must refuse an entry found under this value's
        # id that belongs to a dead value or to another live one.
        alive = Frozen(1.0, "alive")
        doomed = Frozen(2.0, "doomed")
        digest(alive)
        digest(doomed)
        dead_entry = _entry(doomed)
        del doomed
        target = Frozen(3.0, "target")
        for planted in (dead_entry, _entry(alive)):
            persist._MEMO[id(target)] = planted
            try:
                assert digest(target) == persist_reference.digest(target)
            finally:
                persist._MEMO.pop(id(target), None)

    def test_dropped_values_leave_the_memo(self):
        values = [Frozen(float(n), Frozen(-float(n))) for n in range(200)]
        for value in values:
            digest(value)
        entries = [_entry(value) for value in values]
        assert all(entry is not None for entry in entries)
        del values, value
        live = {id(entry) for entry in list(persist._MEMO.values())}
        assert not any(id(entry) in live for entry in entries)

    def test_threads_digest_shared_and_fresh_values_like_the_oracle(self):
        shared = [
            CMOS025,
            _mdac(),
            {"spec": _mdac(1), "tech": CMOS025},
            Frozen([1.0, 2.0], Frozen((3.0, "x"))),
            Tagged(Frozen(Level.HIGH), Loose(-0.0)),
        ]
        expected = [persist_reference.digest(value) for value in shared]
        failures: list[str] = []
        stop = time.monotonic() + 1.5

        def run(worker: int) -> None:
            n = 0
            while time.monotonic() < stop and not failures:
                n += 1
                for value, want in zip(shared, expected):
                    if digest(value) != want:
                        failures.append(f"shared value differs in thread {worker}")
                fresh = Frozen(float(n), (worker, Frozen(str(n)), CMOS025.nmos))
                if digest(fresh) != persist_reference.digest(fresh):
                    failures.append(f"fresh value differs in thread {worker}")
                if worker == 0 and n % 50 == 0:
                    persist._MEMO.clear()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:3]


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

    def _older_entry_misses(self, tmp_path, monkeypatch, version):
        assert persist.FORMAT_VERSION == 3
        with monkeypatch.context() as old:
            old.setattr(persist, "FORMAT_VERSION", version)
            _cache(tmp_path).get(_mdac())
        again = _cache(tmp_path)
        again.get(_mdac())
        assert again.persistent_hits == 0
        assert again.cold_runs == 1
        assert len(list(tmp_path.iterdir())) == 2

    def test_an_entry_written_under_format_version_1_misses(self, tmp_path, monkeypatch):
        # Version 1 entries hold blocks the 50-degree search and its repair
        # ladder found; the payload's shape is the same, the search is not.
        self._older_entry_misses(tmp_path, monkeypatch, 1)

    def test_an_entry_written_under_format_version_2_misses(self, tmp_path, monkeypatch):
        # Version 2 entries hold margins and cost histories from read-outs
        # of the whole MNA system, which differ in their last bits.
        self._older_entry_misses(tmp_path, monkeypatch, 2)

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
