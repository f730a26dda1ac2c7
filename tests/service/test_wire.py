"""The wire module: round-trips, schema gates, and byte-stability contracts."""

import base64
import json
import math
import os
import pickle
import pickletools
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.persist import digest
from repro.engine.scheduler import SynthesisJob
from repro.service import wire
from repro.specs.adc import AdcSpec
from repro.tech import CMOS025


def _job(**overrides) -> SynthesisJob:
    spec = AdcSpec(resolution_bits=10)
    fields = dict(
        spec=spec, tech=CMOS025, budget=60, seed=1, verify_transient=False
    )
    fields.update(overrides)
    return SynthesisJob(**fields)


class TestTaskEnvelopes:
    def test_roundtrip(self):
        envelope = wire.encode_task(digest, {"n": [1, 2, 3]})
        assert envelope["schema"] == wire.WIRE_SCHEMA
        fn_name, task = wire.decode_task(envelope)
        assert fn_name == "repro.engine.persist.digest"
        assert task == {"n": [1, 2, 3]}

    def test_envelope_is_json_serializable(self):
        envelope = wire.encode_task(digest, {"n": 1})
        assert json.loads(json.dumps(envelope)) == envelope

    def test_rejects_newer_schema(self):
        envelope = wire.encode_task(digest, {"n": 1})
        envelope["schema"] = wire.WIRE_SCHEMA + 1
        with pytest.raises(ValueError, match="newer"):
            wire.decode_task(envelope)

    def test_rejects_missing_or_undotted_fn(self):
        envelope = wire.encode_task(digest, {"n": 1})
        for bad in (None, "", "digest", 42):
            mutated = {**envelope, "fn": bad}
            with pytest.raises(ValueError, match="importable fn"):
                wire.decode_task(mutated)

    def test_rejects_unreadable_body(self):
        envelope = wire.encode_task(digest, {"n": 1})
        for bad in ("!!! not base64 !!!", "gA==", None):
            with pytest.raises(ValueError, match="unreadable"):
                wire.decode_task({**envelope, "task_pkl": bad})
        with pytest.raises(ValueError):
            wire.decode_task("not a dict")

    def test_function_name_is_importable_identity(self):
        assert wire.function_name(digest) == "repro.engine.persist.digest"


class TestResultPayloads:
    def test_raw_roundtrip(self):
        value = {"power": 1.25e-3, "labels": ("a", "b")}
        assert wire.decode_result(wire.encode_result(value)) == value

    def test_b64_roundtrip(self):
        payload = wire.encode_result([1, 2, 3])
        assert wire.decode_result_b64(wire.encode_result_b64(payload)) == payload

    def test_b64_rejects_garbage(self):
        with pytest.raises(ValueError, match="base64"):
            wire.decode_result_b64("!!! definitely not base64 !!!")


class TestRestrictedUnpickling:
    """The RCE gate: wire payloads decode through an allow-list, not pickle."""

    def test_repro_classes_and_plain_data_round_trip(self):
        import numpy as np

        job = _job()
        payload = wire.encode_result(
            {"job": job, "gain": np.float64(0.5), "label": ("a", 1)}
        )
        decoded = wire.restricted_loads(payload)
        assert decoded["job"] == job
        assert decoded["gain"] == 0.5 and type(decoded["gain"]) is np.float64

    def test_globals_no_payload_uses_are_blocked(self):
        import collections

        import numpy as np

        for value in (
            np.asarray([0.5, 1.0]),
            bytearray(b"ab"),
            range(3),
            complex(1.0, 2.0),
            collections.OrderedDict(a=1),
            collections.deque([1]),
        ):
            # Protocol 4: protocol 5 writes a bytearray with its own opcode.
            payload = pickle.dumps(value, protocol=4)
            with pytest.raises(pickle.UnpicklingError, match="may not reference"):
                wire.restricted_loads(payload)

    def test_stdlib_call_gadgets_are_blocked(self):
        import pickle

        class Gadget:
            def __reduce__(self):
                import os

                return (os.system, ("true",))

        payload = pickle.dumps(Gadget())
        with pytest.raises(pickle.UnpicklingError, match="may not reference"):
            wire.restricted_loads(payload)

    def test_builtins_beyond_data_types_are_blocked(self):
        import pickle

        class Gadget:
            def __reduce__(self):
                return (eval, ("1+1",))

        with pytest.raises(pickle.UnpicklingError, match="may not reference"):
            wire.restricted_loads(pickle.dumps(Gadget()))

    def test_repro_functions_are_blocked(self):
        # Classes reconstruct state; module-level *functions* are REDUCE
        # call gadgets even inside our own package (atomic_write_bytes
        # would be a file-write primitive), so only classes pass.
        import pickle

        class Gadget:
            def __reduce__(self):
                return (wire.canonical_json, ({},))

        with pytest.raises(pickle.UnpicklingError, match="classes"):
            wire.restricted_loads(pickle.dumps(Gadget()))

    def test_decode_task_rejects_gadget_payloads_as_unreadable(self):
        import base64
        import pickle

        class Gadget:
            def __reduce__(self):
                import os

                return (os.system, ("true",))

        envelope = wire.encode_task(digest, {"n": 1})
        envelope["task_pkl"] = base64.b64encode(
            pickle.dumps(Gadget())
        ).decode("ascii")
        with pytest.raises(ValueError, match="unreadable"):
            wire.decode_task(envelope)


def _wire_globals(payload: bytes) -> set[tuple[str, str]]:
    """Every global a pickle references, read off its opcodes.

    ``GLOBAL`` names its global inline; ``STACK_GLOBAL`` takes the two
    strings pushed just before it, each pushed as itself or fetched from
    the memo.
    """
    found = set()
    memo: dict[int, object] = {}
    pushed: list[object] = []
    for opcode, arg, _ in pickletools.genops(payload):
        if opcode.name == "GLOBAL":
            found.add(tuple(arg.split(" ", 1)))
            pushed.append(None)
        elif opcode.name == "STACK_GLOBAL":
            found.add((pushed[-2], pushed[-1]))
            pushed.append(None)
        elif opcode.name == "MEMOIZE":
            memo[len(memo)] = pushed[-1]
        elif opcode.name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = pushed[-1]
        elif opcode.name in ("GET", "BINGET", "LONG_BINGET"):
            pushed.append(memo[arg])
        elif opcode.stack_after:
            pushed.append(arg if isinstance(arg, str) else None)
    return found


@pytest.fixture(scope="module")
def production_payloads() -> dict[str, bytes]:
    """Pickled tasks and results of every type the backends ship."""
    from repro.behavioral.verify import verify_candidate
    from repro.engine.config import FlowConfig
    from repro.engine.scheduler import run_synthesis_job
    from repro.enumeration.candidates import PipelineCandidate
    from repro.flow.designer import _sweep_one, _SweepTask
    from repro.flow.topology import _AnalyticTask, _evaluate_analytic
    from repro.power.model import DEFAULT_POWER_MODEL
    from repro.specs import plan_stages

    spec = AdcSpec(resolution_bits=10)
    candidate = PipelineCandidate((3, 2), 10, 7)
    plan = plan_stages(spec, candidate)
    cold = SynthesisJob(
        spec=plan.mdacs[0], tech=CMOS025, budget=20, seed=1, verify_transient=False
    )
    result = run_synthesis_job(cold)
    retarget = SynthesisJob(
        spec=plan.mdacs[1], tech=CMOS025, budget=20, seed=1,
        verify_transient=False, donor=result,
    )
    analytic = _AnalyticTask(plan, DEFAULT_POWER_MODEL)
    sweep = _SweepTask(10, 40e6, DEFAULT_POWER_MODEL, FlowConfig().serial())
    tasks = {
        "SynthesisJob": (run_synthesis_job, cold),
        "SynthesisJob(donor)": (run_synthesis_job, retarget),
        "_AnalyticTask": (_evaluate_analytic, analytic),
        "_SweepTask": (_sweep_one, sweep),
    }
    payloads = {
        name: base64.b64decode(wire.encode_task(fn, task)["task_pkl"])
        for name, (fn, task) in tasks.items()
    }
    results = {
        "SynthesisResult": result,
        "CandidateEvaluation": _evaluate_analytic(analytic),
        "SweepPoint": _sweep_one(sweep),
        "BehavioralVerdict": verify_candidate(spec, candidate, draws=2, seed=1),
    }
    payloads.update({name: wire.encode_result(r) for name, r in results.items()})
    return payloads


class TestAllowList:
    def test_it_is_exactly_what_production_payloads_reference(
        self, production_payloads
    ):
        foreign = set()
        for name, payload in production_payloads.items():
            assert wire.decode_result(payload) is not None, name
            foreign |= {
                (module, qualname)
                for module, qualname in _wire_globals(payload)
                if module != "repro" and not module.startswith("repro.")
            }
        # numpy 2 moved ``numpy.core`` to ``numpy._core``; the list names both.
        def layout_free(names):
            return {(m.replace("numpy._core.", "numpy.core."), n) for m, n in names}

        assert layout_free(foreign) == layout_free(wire._SAFE_GLOBALS)
        assert foreign <= wire._SAFE_GLOBALS

    def test_the_walk_sees_memoized_module_names(self):
        class Bomb:
            def __reduce__(self):
                return (list, (range(3),))

        payload = pickle.dumps(Bomb(), protocol=pickle.HIGHEST_PROTOCOL)
        assert _wire_globals(payload) == {("builtins", "list"), ("builtins", "range")}


#: Bodies a few bytes long that the unpickler used to answer with
#: ``OverflowError`` or a multi-exabyte allocation (``MemoryError``).
DECLARED_PAST_THE_END = {
    "bytearray8-past-maxsize": b"\x96" + struct.pack("<Q", 2**63 + 5),
    "bytearray8-2**62": b"\x96" + struct.pack("<Q", 2**62),
    "bytes8-2**62": b"\x8e" + struct.pack("<Q", 2**62),
}

#: A LONG_BINPUT at memo index 2**27: the unpickler zeroed a memo table of
#: 2**28 pointers (2 GB) for it, then returned ``None``.
MEMO_BOMB = b"\x80\x04N" + b"r" + struct.pack("<I", 2**27) + b"."


def _envelope_with_body(body: bytes) -> dict:
    envelope = wire.encode_task(digest, {"n": 1})
    envelope["task_pkl"] = base64.b64encode(body).decode("ascii")
    return envelope


def _plain_data(binary: bool):
    """Nested plain data; bytes only where the protocol has opcodes for it."""
    leaves = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False)
        | st.text(max_size=20)
    )
    if binary:
        leaves |= st.binary(max_size=20)
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=5)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=5), inner, max_size=5),
        max_leaves=30,
    )


class TestWirePayloadBounds:
    @pytest.mark.parametrize("name", sorted(DECLARED_PAST_THE_END))
    def test_declared_lengths_past_the_end_are_unreadable(self, name):
        body = DECLARED_PAST_THE_END[name]
        with pytest.raises(pickle.UnpicklingError, match="malformed"):
            wire.restricted_loads(body)
        with pytest.raises(ValueError, match="unreadable"):
            wire.decode_result(body)
        with pytest.raises(ValueError, match="unreadable"):
            wire.decode_task(_envelope_with_body(body))

    def test_a_memo_index_past_the_payload_allocates_nothing(self):
        # Run where a regression can only hurt a child capped at its own
        # address space plus 256 MB, never the test process.
        child = textwrap.dedent(
            f"""
            import base64, resource
            from repro.engine.persist import digest
            from repro.service import wire

            with open("/proc/self/status") as status:
                vm = next(int(l.split()[1]) for l in status if l.startswith("VmSize:"))
            limit = vm * 1024 + 256 * 2**20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            body = {MEMO_BOMB!r}
            envelope = wire.encode_task(digest, None)
            envelope["task_pkl"] = base64.b64encode(body).decode("ascii")
            for decode, arg in ((wire.decode_result, body), (wire.decode_task, envelope)):
                try:
                    decode(arg)
                except ValueError as exc:
                    print("refused:", exc)
            """
        )
        src = Path(wire.__file__).resolve().parents[2]
        done = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 2, done.stdout
        assert all("memo index 134217728" in line for line in lines)

    def test_constructor_bombs_are_refused_before_they_allocate(self):
        # A 46-byte bytearray(2**30) and a 61-byte list(range(2**27)): the
        # allow-list must refuse their globals before REDUCE runs, in a
        # child capped at its own address space plus 256 MB.
        class Bytes:
            def __reduce__(self):
                return (bytearray, (2**30,))

        class Ints:
            def __reduce__(self):
                return (list, (range(2**27),))

        bodies = [
            pickle.dumps(bomb(), protocol=pickle.HIGHEST_PROTOCOL)
            for bomb in (Bytes, Ints)
        ]
        assert [len(body) for body in bodies] == [46, 61]
        child = textwrap.dedent(
            f"""
            import base64, resource
            from repro.engine.persist import digest
            from repro.service import wire

            with open("/proc/self/status") as status:
                vm = next(int(l.split()[1]) for l in status if l.startswith("VmSize:"))
            limit = vm * 1024 + 256 * 2**20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            for body in {bodies!r}:
                envelope = wire.encode_task(digest, None)
                envelope["task_pkl"] = base64.b64encode(body).decode("ascii")
                for decode, arg in ((wire.decode_result, body), (wire.decode_task, envelope)):
                    try:
                        decode(arg)
                    except ValueError as exc:
                        print("refused:", exc)
            """
        )
        src = Path(wire.__file__).resolve().parents[2]
        done = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 4, done.stdout
        assert all("may not reference builtins." in line for line in lines), lines
        assert "builtins.bytearray" in lines[0] and "builtins.list" in lines[2]

    def test_every_truncation_of_a_real_payload_is_unreadable(self):
        payload = wire.encode_result(_job())
        for end in range(len(payload)):
            with pytest.raises(ValueError, match="unreadable"):
                wire.decode_result(payload[:end])

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.integers(0, pickle.HIGHEST_PROTOCOL).flatmap(
            # Protocols 0-2 pickle bytes through globals the allow-list refuses.
            lambda protocol: st.tuples(st.just(protocol), _plain_data(protocol >= 3))
        )
    )
    def test_real_pickles_of_every_protocol_pass_the_bounds(self, case):
        protocol, value = case
        # Shared references put real memo entries in the payload.
        shared = [value, value, (value,)]
        decoded = wire.decode_result(pickle.dumps(shared, protocol=protocol))
        assert decoded == shared


#: Awkward JSON leaf values: huge, NaN and infinite floats, ints of any
#: size (written as text, since ``json.dumps`` refuses the largest).
_LEASE_LEAF = (
    st.floats().map(json.dumps)
    | st.sampled_from(["1e400", "-1e400", "1e308", "-1.0", "2147483648.0", "1e19"])
    | st.integers().map(str)
    | st.integers(min_value=10**300, max_value=10**310).map(str)
    | st.text(max_size=8).map(json.dumps)
    | st.sampled_from(["null", "true", "false", "9" * 5000])
)

_LEASE_VALUE = st.recursive(
    _LEASE_LEAF,
    lambda inner: st.lists(inner, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]")
    | st.dictionaries(
        st.sampled_from(["pid", "deadline", "worker", "host", "schema", "x"]),
        inner,
        max_size=4,
    ).map(lambda d: "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in d.items()) + "}"),
    max_leaves=10,
)

#: Lease bodies: a value or an object over the lease's own keys.
_LEASE_JSON = _LEASE_VALUE | st.fixed_dictionaries(
    {},
    optional={
        "pid": _LEASE_VALUE,
        "deadline": _LEASE_VALUE,
        "worker": _LEASE_VALUE,
        "host": _LEASE_VALUE,
    },
).map(lambda d: "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in d.items()) + "}")


def _assert_parsed(parsed: dict) -> None:
    assert set(parsed) == {"pid", "worker", "host", "deadline"}
    assert type(parsed["pid"]) is int
    assert parsed["deadline"] is None or (
        type(parsed["deadline"]) is float and math.isfinite(parsed["deadline"])
    )
    assert parsed["worker"] is None or isinstance(parsed["worker"], str)
    assert parsed["host"] is None or isinstance(parsed["host"], str)


class TestLeases:
    def test_v1_roundtrip(self):
        body = wire.lease_body(pid=1234, worker="w1", host="h", deadline=42.5)
        parsed = wire.parse_lease(body)
        assert parsed == {
            "pid": 1234,
            "worker": "w1",
            "host": "h",
            "deadline": 42.5,
        }
        assert json.loads(body)["schema"] == wire.WIRE_SCHEMA

    def test_optional_fields_stay_out_of_the_body(self):
        assert json.loads(wire.lease_body(pid=1)) == {
            "schema": wire.WIRE_SCHEMA,
            "pid": 1,
        }

    def test_pr4_dict_lease_parses(self):
        parsed = wire.parse_lease(json.dumps({"pid": 77}))
        assert parsed["pid"] == 77
        assert parsed["worker"] is None and parsed["deadline"] is None

    def test_bare_int_lease_parses(self):
        assert wire.parse_lease("88")["pid"] == 88

    @pytest.mark.parametrize(
        "garbage", ["", "{truncated", "\x00\xff binary", "[]", '{"pid": "x"}']
    )
    def test_garbage_parses_to_a_dead_claim(self, garbage):
        parsed = wire.parse_lease(garbage)
        assert parsed["pid"] == 0
        assert parsed["deadline"] is None

    @pytest.mark.parametrize(
        "body",
        [
            "1e400",
            '{"pid": 1e400}',
            '{"pid": -Infinity}',
            '{"pid": NaN}',
            '{"pid": -5}',
            '{"pid": 2147483648}',
            "9" * 5000,
            '{"pid": ' + "9" * 5000 + "}",
            "[" * 100_000,
        ],
        ids=[
            "bare-1e400",
            "pid-1e400",
            "pid-minus-infinity",
            "pid-nan",
            "negative-pid",
            "pid-past-pid_t",
            "bare-5000-digits",
            "pid-5000-digits",
            "nested-100000-deep",
        ],
    )
    def test_a_pid_no_process_can_have_is_a_dead_claim(self, body):
        parsed = wire.parse_lease(body)
        assert parsed["pid"] == 0
        assert parsed["deadline"] is None

    @pytest.mark.parametrize(
        "deadline", ["NaN", "Infinity", "-Infinity", "1e400", '"nan"', "[]"]
    )
    def test_a_deadline_no_clock_reaches_is_no_deadline(self, deadline):
        parsed = wire.parse_lease('{"pid": 4, "deadline": %s}' % deadline)
        assert parsed["pid"] == 4
        assert parsed["deadline"] is None

    @settings(max_examples=300, deadline=None)
    @given(text=st.text())
    def test_any_text_parses(self, text):
        _assert_parsed(wire.parse_lease(text))

    @settings(max_examples=300, deadline=None)
    @given(body=_LEASE_JSON)
    def test_any_json_parses(self, body):
        _assert_parsed(wire.parse_lease(body))


class TestSynthesisTaskPayload:
    def test_matches_queue_payload(self):
        job = _job()
        assert wire.synthesis_task_payload(job) == job.queue_payload()

    def test_exact_pr4_shape(self):
        # Hand-built expected dict: the digest of this payload keys every
        # persisted ack, so any key/default drift here is a broken store.
        job = _job()
        assert wire.synthesis_task_payload(job) == {
            "kind": "synthesis_job",
            "spec": job.spec,
            "tech": job.tech,
            "budget": 60,
            "seed": 1,
            "verify_transient": False,
            "donor": None,
            "retarget_budget": 80,
            "retarget_seed": 7,
        }


class TestResultSummaries:
    def test_canonical_json_shape(self):
        blob = wire.canonical_json({"b": 1, "a": [1.5]})
        assert blob == b'{"a":[1.5],"b":1}\n'

    def test_campaign_payload_is_schema_tagged_canonical_json(self):
        class Record:
            label = "k10_40M_analytic"
            winner = "2-2-2-2-2-f"
            winner_power_w = 0.002
            fom_j_per_step = 1e-12

        payload = json.loads(wire.campaign_payload([Record()]))
        assert payload["schema"] == wire.WIRE_SCHEMA
        assert payload["kind"] == "campaign"
        assert payload["scenarios"][0]["label"] == "k10_40M_analytic"
        # Stable bytes: same records, same bytes.
        assert wire.campaign_payload([Record()]) == wire.campaign_payload(
            [Record()]
        )

    def test_topology_payload_matches_the_service_export(self):
        # The service re-exports wire's serializers; both names must be the
        # same object so the two serialization paths can never diverge.
        from repro.service import campaign_payload, topology_payload
        from repro.service.jobs import (
            campaign_payload as jobs_campaign,
            topology_payload as jobs_topology,
        )

        assert campaign_payload is wire.campaign_payload is jobs_campaign
        assert topology_payload is wire.topology_payload is jobs_topology
