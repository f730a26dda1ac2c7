"""Telemetry must observe without perturbing: byte-identical stores.

The observability layer's core contract — ``FlowConfig.telemetry`` may
change *which side artifacts* a campaign store grows (``metrics.json``,
``traces/``) but never a byte of the deterministic record set
(``results.jsonl`` / ``report.txt`` / ``manifest.json``), on any backend.
"""

import json

import pytest

from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig
from repro.obs import metrics as obs
from repro.obs.trace import TRACE_DIRNAME, trace_enabled

MODES = ("off", "metrics", "trace")
DETERMINISTIC = ("results.jsonl", "report.txt", "manifest.json")


#: Counters that describe work done: they must not depend on the backend.
WORK_COUNTERS = (
    "campaign.scenarios",
    "scheduler.job_executions",
    "scheduler.waves",
    "cache.cold_runs",
    "cache.retargeted_runs",
)


def _run(tmp_path, name, grid=None, **config_kwargs):
    store = tmp_path / name
    if grid is None:
        grid = CampaignGrid(resolutions=(10,), modes=("synthesis",))
    config = FlowConfig(
        budget=60,
        retarget_budget=30,
        verify_transient=False,
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

    def test_work_counters_match_serial(self, tmp_path):
        # Forked pool workers start from an empty registry: their spooled
        # snapshots hold only their own work, never the parent's again.
        grid = CampaignGrid(resolutions=(10, 11), modes=("analytic", "synthesis"))

        def work_counters(store):
            payload = json.loads((store / obs.METRICS_FILENAME).read_text())
            counters = payload["metrics"]["counters"]
            return {name: counters.get(name, 0) for name in WORK_COUNTERS}

        serial = work_counters(_run(tmp_path, "serial", grid))
        assert serial["campaign.scenarios"] == 4
        for backend in ("process", "thread"):
            store = _run(tmp_path, backend, grid, backend=backend, max_workers=2)
            assert work_counters(store) == serial, backend
