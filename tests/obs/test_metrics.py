"""Unit tests for the metrics registry: primitives, merge, spool."""

import json

import numpy as np
import pytest

from repro.errors import SpecificationError
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry


class TestRegistryPrimitives:
    def test_counter_accumulates(self):
        r = MetricsRegistry()
        r.counter("a")
        r.counter("a", 4)
        assert r.get_counter("a") == 5
        assert r.get_counter("missing") == 0
        assert r.get_counter("missing", -1) == -1

    def test_gauge_keeps_last_value(self):
        r = MetricsRegistry()
        r.gauge("depth", 3)
        r.gauge("depth", 1)
        assert r.snapshot()["gauges"] == {"depth": 1}

    def test_histogram_summary(self):
        r = MetricsRegistry()
        for v in (2.0, 5.0, 3.0):
            r.observe("latency", v)
        h = r.snapshot()["histograms"]["latency"]
        assert h == {"count": 3, "total": 10.0, "min": 2.0, "max": 5.0}

    def test_numpy_scalars_coerce_to_json_numbers(self):
        r = MetricsRegistry()
        r.counter("n", np.int64(3))
        r.gauge("g", np.float64(1.5))
        r.observe("h", np.int32(7))
        snap = json.loads(json.dumps(r.snapshot()))  # must be JSON-safe
        assert snap["counters"]["n"] == 3
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h"]["total"] == 7

    def test_reset_drops_everything(self):
        r = MetricsRegistry()
        r.counter("a")
        r.gauge("b", 1)
        r.observe("c", 1)
        r.reset()
        assert r.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestMergeSemantics:
    def test_counters_add_gauges_max_histograms_widen(self):
        a = MetricsRegistry()
        a.counter("jobs", 2)
        a.gauge("wave", 1)
        a.observe("dt", 1.0)
        b = MetricsRegistry()
        b.counter("jobs", 3)
        b.gauge("wave", 4)
        b.observe("dt", 9.0)

        merged = metrics.aggregate_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["jobs"] == 5
        assert merged["gauges"]["wave"] == 4
        assert merged["histograms"]["dt"] == {
            "count": 2, "total": 10.0, "min": 1.0, "max": 9.0,
        }

    def test_merge_is_order_independent(self):
        snaps = []
        for i in range(3):
            r = MetricsRegistry()
            r.counter("jobs", i + 1)
            r.gauge("wave", 10 - i)
            r.observe("dt", float(i))
            snaps.append(r.snapshot())
        fwd = metrics.aggregate_snapshots(snaps)
        rev = metrics.aggregate_snapshots(list(reversed(snaps)))
        assert fwd == rev

    def test_malformed_snapshots_are_tolerated(self):
        r = MetricsRegistry()
        r.merge("not a dict")
        r.merge({"counters": "nope", "gauges": None, "histograms": 3})
        r.merge({"counters": {"ok": 1, "bad": "x"}})
        r.merge({"histograms": {"h": {"count": "?"}, "good": {
            "count": 1, "total": 2.0, "min": 2.0, "max": 2.0}}})
        snap = r.snapshot()
        assert snap["counters"] == {"ok": 1}
        assert list(snap["histograms"]) == ["good"]


class TestModeGate:
    def test_off_mode_silences_module_helpers(self):
        metrics.set_mode("off")
        metrics.counter("a")
        metrics.gauge("b", 1)
        metrics.observe("c", 1)
        assert metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert not metrics.metrics_enabled()

    def test_metrics_mode_records(self):
        metrics.set_mode("metrics")
        metrics.counter("a")
        assert metrics.snapshot()["counters"] == {"a": 1}

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecificationError):
            metrics.set_mode("loud")

    def test_reset_all_restores_default_mode(self):
        metrics.set_mode("off")
        metrics.reset_all()
        assert metrics.telemetry_mode() == "metrics"


class TestVerboseLines:
    def test_sorted_name_value_pairs(self):
        r = MetricsRegistry()
        r.counter("z.count", 2)
        r.gauge("a.depth", 1.25)
        r.observe("m.dt", 3.0)
        lines = r.lines()
        assert lines == sorted(lines)
        assert "a.depth 1.25" in lines
        assert "z.count 2" in lines
        assert "m.dt.count 1" in lines
        assert "m.dt.total 3" in lines


class TestSpool:
    def test_write_then_read_roundtrip(self, tmp_path):
        metrics.counter("jobs", 2)
        path = metrics.write_spool_snapshot(tmp_path)
        assert path is not None and path.exists()
        snaps = metrics.read_spool_snapshots(tmp_path)
        assert len(snaps) == 1
        assert snaps[0]["counters"]["jobs"] == 2

    def test_write_defaults_to_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(metrics.SPOOL_ENV, str(tmp_path))
        metrics.counter("jobs")
        assert metrics.write_spool_snapshot() is not None
        assert list(tmp_path.glob("metrics-*.json"))

    def test_write_is_noop_without_spool_or_when_off(self, tmp_path, monkeypatch):
        monkeypatch.delenv(metrics.SPOOL_ENV, raising=False)
        assert metrics.write_spool_snapshot() is None
        metrics.set_mode("off")
        assert metrics.write_spool_snapshot(tmp_path) is None
        assert not list(tmp_path.glob("metrics-*.json"))

    def test_exclude_self_drops_own_file(self, tmp_path):
        metrics.counter("jobs")
        own = metrics.write_spool_snapshot(tmp_path)
        other = tmp_path / "metrics-otherhost-42.json"
        other.write_text(json.dumps({"counters": {"jobs": 5}}))
        assert len(metrics.read_spool_snapshots(tmp_path)) == 2
        kept = metrics.read_spool_snapshots(tmp_path, exclude_self=True)
        assert len(kept) == 1
        assert kept[0]["counters"]["jobs"] == 5
        assert own != other

    def test_torn_files_are_skipped(self, tmp_path):
        (tmp_path / "metrics-h-1.json").write_text("{ torn")
        (tmp_path / "metrics-h-2.json").write_text(json.dumps({"counters": {}}))
        assert len(metrics.read_spool_snapshots(tmp_path)) == 1
