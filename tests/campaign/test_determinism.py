"""Campaign determinism: byte-identical reports on every backend.

The PR 1 guarantee — parallel runs rank candidates identically to serial —
lifted to whole campaigns: the JSONL results store and the comparison
report must compare byte-for-byte across the serial, process and broker
backends, for both analytic and synthesis scenarios.
"""

import pytest

from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig
from tests.conftest import fleet_for

BACKENDS = ("serial", "process", "broker")


def _config(tmp_path, backend, **overrides):
    broker = str(tmp_path / "broker-queue") if backend == "broker" else None
    return FlowConfig(backend=backend, max_workers=2, broker=broker, **overrides)


def _store_bytes(tmp_path, grid, config):
    with fleet_for(config):
        campaign = run_campaign(grid, config=config)
    paths = campaign.save(tmp_path / config.backend)
    return (
        paths["results"].read_bytes(),
        paths["report"].read_bytes(),
        campaign,
    )


class TestAnalyticDeterminism:
    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("analytic")
        grid = CampaignGrid(
            resolutions=(10, 11, 12, 13), sample_rates_hz=(20e6, 40e6, 60e6)
        )
        return {
            name: _store_bytes(tmp_path, grid, _config(tmp_path, name))
            for name in BACKENDS
        }

    def test_results_jsonl_byte_identical(self, stores):
        serial_results = stores["serial"][0]
        for name in BACKENDS[1:]:
            assert stores[name][0] == serial_results, name

    def test_report_byte_identical(self, stores):
        serial_report = stores["serial"][1]
        for name in BACKENDS[1:]:
            assert stores[name][1] == serial_report, name

    def test_nine_plus_point_grid_covered(self, stores):
        # The acceptance grid: >= 9 scenarios with identical rankings.
        campaign = stores["serial"][2]
        assert len(campaign.records) >= 9


class TestSynthesisDeterminism:
    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("synthesis")
        grid = CampaignGrid(resolutions=(10,), modes=("synthesis",))
        return {
            name: _store_bytes(
                tmp_path,
                grid,
                _config(
                    tmp_path,
                    name,
                    budget=60,
                    retarget_budget=30,
                    verify_transient=False,
                ),
            )
            for name in BACKENDS
        }

    def test_results_jsonl_byte_identical(self, stores):
        serial_results = stores["serial"][0]
        for name in BACKENDS[1:]:
            assert stores[name][0] == serial_results, name

    def test_report_byte_identical(self, stores):
        serial_report = stores["serial"][1]
        for name in BACKENDS[1:]:
            assert stores[name][1] == serial_report, name

    def test_synthesis_accounting_identical(self, stores):
        # Not just the rankings: the cold/retarget/pool split is part of
        # the record, so the *plan* must match across backends too.
        records = {name: stores[name][2].records for name in BACKENDS}
        for name in BACKENDS[1:]:
            assert records[name] == records["serial"], name
