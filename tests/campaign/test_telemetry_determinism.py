"""Telemetry must observe without perturbing: byte-identical stores.

The observability layer's core contract — ``FlowConfig.telemetry`` may
change *which side artifacts* a campaign store grows (``metrics.json``,
``traces/``) but never a byte of the deterministic record set
(``results.jsonl`` / ``report.txt`` / ``manifest.json``), on any backend.
"""

import json
from contextlib import nullcontext

import pytest

from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig
from repro.obs import metrics as obs
from repro.obs.trace import TRACE_DIRNAME, trace_enabled
from repro.synth.evaluator import REJECT_STAGES
from tests.conftest import broker_workers

MODES = ("off", "metrics", "trace")
DETERMINISTIC = ("results.jsonl", "report.txt", "manifest.json")


#: Counters that describe work done: they must not depend on the backend.
WORK_COUNTERS = (
    "campaign.scenarios",
    "scheduler.job_executions",
    "scheduler.waves",
    "cache.cold_runs",
    "cache.retargeted_runs",
    "synth.rejected_candidates",
    "synth.rejected_at_dc",
    "synth.rejected_at_gain",
    "synth.rejected_at_bandwidth",
    "synth.ac_points",
    "synth.dc_solves",
    "synth.newton_iterations",
    "synth.transients",
    "synth.repairs",
    "synth.transient_steps",
)

#: Behavioral verdicts served from and missed in the verdict cache.
VERDICT_COUNTERS = ("behavioral.verdict_hits", "behavioral.verdict_misses")


def _counters(store, names):
    payload = json.loads((store / obs.METRICS_FILENAME).read_text())
    counters = payload["metrics"]["counters"]
    return {name: counters.get(name, 0) for name in names}


def _run(tmp_path, name, grid=None, verify_transient=False, **config_kwargs):
    store = tmp_path / name
    if grid is None:
        grid = CampaignGrid(resolutions=(10,), modes=("synthesis",))
    config = FlowConfig(
        budget=60,
        retarget_budget=30,
        verify_transient=verify_transient,
        **config_kwargs,
    )
    run_campaign(grid, config=config, store_dir=store)
    return store


class TestModeDeterminism:
    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("telemetry")
        return {
            mode: _run(tmp_path, mode, telemetry=mode) for mode in MODES
        }

    def test_deterministic_artifacts_identical_across_modes(self, stores):
        for artifact in DETERMINISTIC:
            baseline = (stores["off"] / artifact).read_bytes()
            for mode in ("metrics", "trace"):
                assert (stores[mode] / artifact).read_bytes() == baseline, (
                    f"{artifact} differs under telemetry={mode}"
                )

    def test_metrics_json_written_unless_off(self, stores):
        assert not (stores["off"] / obs.METRICS_FILENAME).exists()
        for mode in ("metrics", "trace"):
            payload = json.loads(
                (stores[mode] / obs.METRICS_FILENAME).read_text()
            )
            assert payload["schema"] == 1
            assert payload["telemetry"] == mode
            assert payload["sources"]["local"] == 1
            counters = payload["metrics"]["counters"]
            assert counters["campaign.scenarios"] == 1
            assert counters["scheduler.jobs_dispatched"] >= 1
            assert counters["scheduler.waves"] >= 1

    def test_traces_written_only_in_trace_mode(self, stores):
        for mode in ("off", "metrics"):
            assert not list((stores[mode] / TRACE_DIRNAME).glob("*.jsonl"))
        trace_files = list((stores["trace"] / TRACE_DIRNAME).glob("*.jsonl"))
        assert trace_files
        names = set()
        for path in trace_files:
            for line in path.read_text().splitlines():
                names.add(json.loads(line)["name"])
        assert {"campaign.run", "campaign.scenario", "synth.wave", "synth.job"} <= names

    def test_telemetry_excluded_from_the_manifest(self, stores):
        manifest = json.loads((stores["metrics"] / "manifest.json").read_text())
        assert "telemetry" not in json.dumps(manifest)

    def test_mode_and_tracing_restored_after_the_run(self, stores):
        # run_campaign scopes its telemetry: the conftest default survives.
        assert obs.telemetry_mode() == "metrics"
        assert not trace_enabled()


class TestBackendDeterminism:
    def test_process_backend_traces_match_serial_bytes(self, tmp_path):
        serial = _run(tmp_path, "serial-off", telemetry="off")
        pooled = _run(
            tmp_path, "pool-trace",
            telemetry="trace", backend="process", max_workers=2,
        )
        for artifact in DETERMINISTIC:
            assert (pooled / artifact).read_bytes() == (
                serial / artifact
            ).read_bytes(), artifact
        payload = json.loads((pooled / obs.METRICS_FILENAME).read_text())
        # Pool workers spool their snapshots into the store; the runner
        # folds them in next to its own live registry.
        assert payload["sources"]["spooled"] >= 1
        assert payload["metrics"]["counters"]["scheduler.job_executions"] >= 1

    @pytest.mark.parametrize("backend", ("process", "broker"))
    def test_work_counters_match_serial(self, tmp_path, backend):
        # Forked pool workers start from an empty registry: their spooled
        # snapshots hold only their own work, never the parent's again; an
        # in-process broker worker counts into the runner's own registry,
        # so its census snapshot is skipped.
        grid = CampaignGrid(resolutions=(10, 11), modes=("analytic", "synthesis"))

        def work_counters(store):
            return _counters(store, WORK_COUNTERS)

        # Transient verification on, so the transient steps count too.
        serial = work_counters(_run(tmp_path, "serial", grid, verify_transient=True))
        assert serial["campaign.scenarios"] == 4
        # Bit-identity suites cannot see a bound that never fires; this can.
        assert serial["synth.rejected_candidates"] > 0
        assert serial["synth.rejected_candidates"] == sum(
            serial[f"synth.rejected_at_{stage}"] for stage in REJECT_STAGES
        )
        assert serial["synth.ac_points"] > 0
        assert serial["synth.newton_iterations"] >= serial["synth.dc_solves"] > 0
        # One settling transient per search, and one more per fallback.
        assert serial["synth.transients"] == (
            serial["scheduler.job_executions"] + serial["synth.repairs"]
        )
        assert serial["synth.transient_steps"] > 0
        # The bandwidth bound is the one a settling predictor can starve.
        assert serial["synth.rejected_at_bandwidth"] > 0
        broker = str(tmp_path / "queue") if backend == "broker" else None
        with broker_workers(broker) if backend == "broker" else nullcontext():
            store = _run(
                tmp_path, backend, grid, verify_transient=True,
                backend=backend, max_workers=2, broker=broker,
            )
        assert work_counters(store) == serial

    @pytest.mark.parametrize("backend", ("process", "broker"))
    def test_verdict_counters_match_serial(self, tmp_path, backend):
        # A cold and a warm run against one fresh cache dir per backend.
        # Behavioral scenarios run in the campaign's own process, so the
        # counts come from the runner's registry on every backend.
        grid = CampaignGrid(resolutions=(10, 11), modes=("analytic", "behavioral"))

        def verdict_counters(name, **config_kwargs):
            cache_dir = str(tmp_path / f"{name}-cache")
            legs = []
            for leg in ("cold", "warm"):
                store = _run(
                    tmp_path,
                    f"{name}-{leg}",
                    grid,
                    cache_dir=cache_dir,
                    behavioral_draws=4,
                    **config_kwargs,
                )
                legs.append(_counters(store, VERDICT_COUNTERS))
            return legs

        serial = verdict_counters("serial")
        # (hits, misses): the cold run simulates both verdicts, the warm
        # run loads both.
        assert [tuple(leg.values()) for leg in serial] == [(0, 2), (2, 0)]
        broker = str(tmp_path / "queue") if backend == "broker" else None
        with broker_workers(broker) if backend == "broker" else nullcontext():
            pooled = verdict_counters(
                backend, backend=backend, max_workers=2, broker=broker
            )
        assert pooled == serial
