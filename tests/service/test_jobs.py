"""Job requests: content keys, validation, records and the job store."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.config import FlowConfig
from repro.errors import SpecificationError
from repro.flow.topology import optimize_topology
from repro.service.jobs import (
    CONFIG_FIELDS,
    JobRecord,
    JobRequest,
    JobStore,
    RESULT_FILENAME,
    build_config,
    parse_request,
    topology_payload,
)
from repro.specs.adc import AdcSpec


CAMPAIGN = {"kind": "campaign", "grid": {"resolutions": [10, 11]}}


class TestContentKeys:
    def test_identical_requests_share_a_key(self):
        assert parse_request(CAMPAIGN).key == parse_request(dict(CAMPAIGN)).key

    def test_key_survives_json_formatting_differences(self):
        # Ints vs floats and implicit vs explicit defaults must not split
        # the key — coalescing works on content, not on raw bytes.
        explicit = {
            "kind": "campaign",
            "grid": {
                "resolutions": [10, 11],
                "sample_rates_hz": [40_000_000],
                "modes": ["analytic"],
                "corners": ["nom"],
                "full_scale": 2,
            },
        }
        assert parse_request(explicit).key == parse_request(CAMPAIGN).key

    def test_execution_knobs_do_not_split_the_key(self):
        # Results are byte-identical across backend/worker/telemetry choices
        # (the repo-wide guarantee), so those knobs must coalesce.
        tweaked = {
            **CAMPAIGN,
            "config": {"backend": "process", "max_workers": 4, "telemetry": "off"},
        }
        assert parse_request(tweaked).key == parse_request(CAMPAIGN).key

    def test_result_relevant_config_splits_the_key(self):
        for config in ({"budget": 99}, {"seed": 3}, {"verify_transient": False}):
            other = {**CAMPAIGN, "config": config}
            assert parse_request(other).key != parse_request(CAMPAIGN).key

    def test_different_grids_split_the_key(self):
        other = {"kind": "campaign", "grid": {"resolutions": [10, 12]}}
        assert parse_request(other).key != parse_request(CAMPAIGN).key

    def test_kinds_split_the_key(self):
        optimize = {"kind": "optimize", "spec": {"resolution_bits": 10}}
        assert parse_request(optimize).key != parse_request(CAMPAIGN).key

    def test_priority_and_client_do_not_split_the_key(self):
        tagged = {**CAMPAIGN, "priority": 5, "client": "alice"}
        assert parse_request(tagged).key == parse_request(CAMPAIGN).key


class TestValidation:
    def test_non_object_body_rejected(self):
        with pytest.raises(SpecificationError, match="JSON object"):
            parse_request([1, 2])

    def test_unknown_kind_names_valid_choices(self):
        with pytest.raises(SpecificationError, match="campaign, optimize"):
            parse_request({"kind": "simulate"})

    def test_unknown_backend_names_valid_choices(self):
        with pytest.raises(SpecificationError, match="process, queue, serial"):
            parse_request({**CAMPAIGN, "config": {"backend": "gpu"}})

    def test_unknown_config_field_names_valid_fields(self):
        with pytest.raises(SpecificationError, match="valid: backend"):
            parse_request({**CAMPAIGN, "config": {"cache_dir": "/tmp/x"}})

    def test_unknown_corner_names_registered_tags(self):
        body = {"kind": "campaign", "grid": {"resolutions": [10], "corners": ["ff"]}}
        with pytest.raises(SpecificationError, match="nom, slow"):
            parse_request(body)

    def test_missing_resolutions_rejected(self):
        with pytest.raises(SpecificationError, match="resolutions"):
            parse_request({"kind": "campaign", "grid": {}})

    def test_unknown_grid_field_rejected(self):
        body = {"kind": "campaign", "grid": {"resolutions": [10], "shards": 2}}
        with pytest.raises(SpecificationError, match="unknown grid field"):
            parse_request(body)

    def test_optimize_needs_resolution(self):
        with pytest.raises(SpecificationError, match="resolution_bits"):
            parse_request({"kind": "optimize", "spec": {}})

    def test_optimize_unknown_mode_rejected(self):
        body = {"kind": "optimize", "spec": {"resolution_bits": 10}, "mode": "spice"}
        with pytest.raises(SpecificationError, match="analytic, synthesis"):
            parse_request(body)

    def test_non_integer_priority_rejected(self):
        with pytest.raises(SpecificationError, match="priority"):
            parse_request({**CAMPAIGN, "priority": "high"})

    def test_build_config_applies_server_cache_dir(self):
        config = build_config({"budget": 123}, cache_dir="/tmp/cache")
        assert config == FlowConfig(budget=123, cache_dir="/tmp/cache")


#: Bodies that once crashed ``parse_request`` with a ``TypeError`` or
#: ``ValueError`` (an HTTP 500), or were silently coerced into a job the
#: client did not ask for.
MALFORMED = {
    "config-not-object": {**CAMPAIGN, "config": "x"},
    "backend-list": {**CAMPAIGN, "config": {"backend": ["serial"]}},
    "rates-string": {"grid": {"resolutions": [10], "sample_rates_hz": "x"}},
    "resolution-bits-string": {"kind": "optimize", "spec": {"resolution_bits": "x"}},
    "verify-transient-string": {**CAMPAIGN, "config": {"verify_transient": "no"}},
    "resolutions-string": {"grid": {"resolutions": "10"}},
    "resolutions-float": {"grid": {"resolutions": [10.7]}},
    "budget-float": {**CAMPAIGN, "config": {"budget": 400.0}},
    "seed-boolean": {**CAMPAIGN, "config": {"seed": True}},
    "max-workers-zero": {**CAMPAIGN, "config": {"max_workers": 0}},
    "rates-infinite": {"grid": {"resolutions": [10], "sample_rates_hz": [1e999]}},
    "corner-list": {"grid": {"resolutions": [10], "corners": [["nom"]]}},
    "mode-list": {"grid": {"resolutions": [10], "modes": ["analytic", ["x"]]}},
    "full-scale-string": {"grid": {"resolutions": [10], "full_scale": "2"}},
    "max-workers-boolean": {**CAMPAIGN, "config": {"max_workers": True}},
    "priority-boolean": {**CAMPAIGN, "priority": True},
    "priority-infinite": {**CAMPAIGN, "priority": 1e999},
    "client-number": {**CAMPAIGN, "client": 5},
    "spec-rate-string": {
        "kind": "optimize",
        "spec": {"resolution_bits": 10, "sample_rate_hz": "4e7"},
    },
    "spec-corner-list": {
        "kind": "optimize",
        "spec": {"resolution_bits": 10, "corner": ["nom"]},
    },
}

#: Any JSON value, and a JSON value or a plausible one per known field.
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _or_json(*plausible):
    return st.sampled_from(plausible) | JSON


BODIES = st.fixed_dictionaries(
    {},
    optional={
        "kind": _or_json("campaign", "optimize"),
        "mode": _or_json("analytic", "synthesis"),
        "priority": _or_json(0, 3),
        "client": _or_json("alice"),
        "config": st.dictionaries(
            st.sampled_from(CONFIG_FIELDS), _or_json(1, 60, "serial"), max_size=4
        )
        | JSON,
        "grid": st.fixed_dictionaries(
            {},
            optional={
                "resolutions": _or_json([10], [10, 11]),
                "sample_rates_hz": _or_json([40e6], [20e6, 40e6]),
                "modes": _or_json(["analytic"], ["synthesis"]),
                "corners": _or_json(["nom"], ["nom", "slow"]),
                "full_scale": _or_json(2.0, 2),
            },
        )
        | JSON,
        "spec": st.fixed_dictionaries(
            {},
            optional={
                "resolution_bits": _or_json(10, 12),
                "sample_rate_hz": _or_json(40e6),
                "full_scale": _or_json(2.0),
                "corner": _or_json("nom", "slow"),
            },
        )
        | JSON,
    },
)


class TestMalformedFields:
    @pytest.mark.parametrize("body", MALFORMED.values(), ids=list(MALFORMED))
    def test_one_line_specification_error(self, body):
        with pytest.raises(SpecificationError) as exc:
            parse_request(body)
        assert "\n" not in str(exc.value)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(body=BODIES)
    def test_any_json_body_parses_or_is_refused(self, body):
        # Round-trip through JSON: the server only ever sees JSON values.
        body = json.loads(json.dumps(body))
        try:
            request = parse_request(body)
        except SpecificationError as exc:
            assert "\n" not in str(exc)
        else:
            assert isinstance(request, JobRequest)


class TestRecordsAndStore:
    def test_record_roundtrip(self):
        request = parse_request(CAMPAIGN)
        record = JobRecord(
            key=request.key,
            kind=request.kind,
            request=request.body,
            seq=3,
            priority=1,
            client="alice",
        )
        twin = JobRecord.from_json(record.to_json().decode("utf-8"))
        assert twin == record
        assert twin.job_id == request.key[:12]

    def test_store_persists_and_orders_by_seq(self, tmp_path):
        store = JobStore(tmp_path)
        for seq, bits in ((2, [10]), (1, [11])):
            request = parse_request(
                {"kind": "campaign", "grid": {"resolutions": bits}}
            )
            store.save(
                JobRecord(
                    key=request.key,
                    kind=request.kind,
                    request=request.body,
                    seq=seq,
                )
            )
        loaded = store.load_all()
        assert [r.seq for r in loaded] == [1, 2]

    def test_corrupt_record_is_skipped(self, tmp_path):
        store = JobStore(tmp_path)
        request = parse_request(CAMPAIGN)
        store.save(
            JobRecord(key=request.key, kind="campaign", request=request.body)
        )
        (store.jobs_dir / "zzzz.json").write_text("{broken", encoding="utf-8")
        assert [r.key for r in store.load_all()] == [request.key]

    def test_result_marker_and_artifacts(self, tmp_path):
        store = JobStore(tmp_path)
        key = "k" * 64
        assert not store.result_ready(key)
        assert store.read_result(key) is None
        store.write_result(key, b'{"ok":true}\n')
        assert store.result_ready(key)
        assert store.read_result(key) == b'{"ok":true}\n'
        assert list(store.artifacts(key)) == [RESULT_FILENAME]
        # Campaign store artifacts appear once the files exist.
        store_dir = store.campaign_store_dir(key)
        store_dir.mkdir(parents=True)
        (store_dir / "results.jsonl").write_text("{}\n", encoding="utf-8")
        assert set(store.artifacts(key)) == {RESULT_FILENAME, "results.jsonl"}


class TestPayloads:
    def test_topology_payload_is_canonical_and_deterministic(self):
        result = optimize_topology(AdcSpec(resolution_bits=10))
        twin = optimize_topology(AdcSpec(resolution_bits=10))
        assert topology_payload(result) == topology_payload(twin)
        payload = json.loads(topology_payload(result))
        assert payload["winner"] == result.best.label
        assert payload["spec"]["resolution_bits"] == 10
        assert payload["rankings"][0][0] == result.best.label
