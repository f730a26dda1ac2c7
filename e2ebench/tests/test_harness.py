"""Self-tests of the benchmark harness (not of the repro stack).

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import stats  # noqa: E402
from tracer import Target, Tracer, outermost_times, self_times  # noqa: E402


def _span(name, layer, parent, start, end):
    return (name, layer, parent, 0, start, end)


def test_self_time_subtracts_direct_children_only():
    # simulate_transient [0, 10] calls solve_dc [1, 4], which calls
    # numpy.linalg.solve [2, 3]; the transient also solves [5, 6] itself.
    spans = [
        _span("simulate_transient", "transient", -1, 0.0, 10.0),
        _span("solve_dc", "dc", 0, 1.0, 4.0),
        _span("solve", "linalg", 1, 2.0, 3.0),
        _span("solve", "linalg", 0, 5.0, 6.0),
    ]
    self_s, calls, roots = self_times(spans)
    assert self_s == {"transient": 6.0, "dc": 2.0, "linalg": 2.0}
    assert calls == {"transient": 1, "dc": 1, "linalg": 2}
    assert roots == 10.0
    assert sum(self_s.values()) == roots


def test_same_layer_nesting_adds_time_but_no_call():
    # BoundMna.newton_solve falling back to numpy.linalg.solve.
    spans = [
        _span("newton_solve", "linalg", -1, 0.0, 3.0),
        _span("solve", "linalg", 0, 1.0, 2.0),
    ]
    self_s, calls, roots = self_times(spans)
    assert self_s == {"linalg": 3.0}
    assert calls == {"linalg": 1}


def test_retarget_charges_its_inner_synthesis():
    spans = [
        _span("retarget_mdac", "synth", -1, 0.0, 4.0),
        _span("synthesize_mdac", "synth", 0, 0.5, 4.0),
        _span("synthesize_mdac", "synth", -1, 5.0, 7.0),
    ]
    totals = outermost_times(spans, ("synthesize_mdac", "retarget_mdac"))
    assert totals == {"synthesize_mdac": 2.0, "retarget_mdac": 4.0}


def test_live_wrappers_nest_and_count():
    import repro.analysis.transient as transient_mod

    tracer = Tracer()
    tracer.install(
        [
            Target("repro.analysis.transient:simulate_transient", "transient"),
            Target("repro.analysis.dc:solve_dc", "dc"),
            Target("numpy.linalg:solve", "linalg"),
        ]
    )
    try:
        from repro.circuit.builder import CircuitBuilder

        b = CircuitBuilder("rc")
        b.v("in", "gnd", dc=1.0, name="vin")
        b.r("in", "out", 1e3, name="r1")
        b.c("out", "gnd", 1e-9, name="c1")
        transient_mod.simulate_transient(b.circuit, t_stop=1e-6, dt=1e-7)
    finally:
        tracer.restore()
    self_s, calls, roots = self_times(tracer.spans)
    assert calls["transient"] == 1 and calls["dc"] == 1
    assert calls["linalg"] >= 1
    # The transient's initial operating point is charged to the DC layer.
    dc_span = next(s for s in tracer.spans if s[1] == "dc")
    assert tracer.spans[dc_span[2]][1] == "transient"
    assert abs(sum(self_s.values()) - roots) < 1e-9


def test_every_wrapped_attribute_is_restored():
    import importlib

    def snapshot():
        seen = {}
        for target in layers.SERIAL_TARGETS:
            module_name, _, attr = target.path.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls, name = attr.split(".", 1)
                seen[target.path] = getattr(module, cls).__dict__[name]
            else:
                seen[target.path] = getattr(module, attr)
        bound = {
            (name, key): value
            for name, module in list(sys.modules.items())
            if name.startswith("repro")
            for key, value in list(vars(module).items())
            if callable(value)
        }
        return seen, bound

    import repro.campaign.runner  # noqa: F401  (load the name-bound importers)
    import repro.service.scheduler  # noqa: F401

    before = snapshot()
    tracer = Tracer()
    tracer.install(layers.SERIAL_TARGETS)
    try:
        import numpy

        assert getattr(numpy.linalg.solve, "__wrapped__", None) is not None
        assert repro.campaign.runner.optimize_topology is not before[0][
            "repro.flow.topology:optimize_topology"
        ]
    finally:
        tracer.restore()
    after = snapshot()
    assert after[0] == before[0]
    assert after[1].keys() == before[1].keys()
    assert all(after[1][k] is before[1][k] for k in before[1])


def test_speed_probe_samples_and_restores_its_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGPROF)
    probe = stats.SpeedProbe()
    with probe:
        mark = probe.mark()
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    assert probe.factor(mark) > 0
    with pytest.raises(ValueError):
        stats.SpeedProbe().factor()


def test_percentile_refuses_thin_tail():
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile(list(range(200)), 95) == 189
    assert stats.percentile([5.0] * 11, 0) == 5.0


def test_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert all(pattern.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert {m["name"] for m in spec["end_to_end"]} >= {"wall_s", "setup_s"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_layer_metrics_cover_benchmark_json():
    # Every per-layer name comes from somewhere in the harness.
    import workloads

    tracer = Tracer()
    produced = set(layers.layer_metrics(tracer, 1))
    produced |= set(layers.store_counters({})) - {"job_seconds"}
    produced |= set(workloads.service_layers(
        [
            {"latency": 0.01 * i, "submit": 0.001, "queue_wait": 0.002,
             "run": 0.005, "artifact": 0.001, "coalesced": i % 4 == 3}
            for i in range(1, 240)
        ]
    ))
    produced |= {
        "cache.hit_ratio", "backend.busy_frac", "campaign.infeasible_points",
        "counters_backend_consistent", "obs.trace_overhead_frac",
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == produced
