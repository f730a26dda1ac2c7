"""The ``repro-adc serve`` / ``submit`` / ``jobs`` / ``worker`` / ``status``
commands."""

import signal

import pytest

from repro.campaign import CampaignGrid, run_campaign
from repro.cli import main
from repro.engine import broker as broker_module
from repro.engine.broker import DirectoryBroker, HttpBroker
from repro.engine.worker import WorkerLoop
from repro.service import BackgroundServer


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(store_dir=tmp_path / "svc") as background:
        yield background


class TestSubmitCommand:
    def test_submit_fetch_matches_direct_campaign(
        self, server, tmp_path, capsys
    ):
        fetched = tmp_path / "fetched"
        assert (
            main(
                [
                    "submit",
                    "--url",
                    server.base_url,
                    "--bits",
                    "10-11",
                    "--fetch",
                    str(fetched),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "job " in out
        assert "Campaign comparison" in out  # the fetched report is printed

        direct = tmp_path / "direct"
        run_campaign(CampaignGrid(resolutions=(10, 11)), store_dir=direct)
        for name in ("results.jsonl", "report.txt", "manifest.json"):
            assert (fetched / name).read_bytes() == (
                direct / name
            ).read_bytes(), name

    def test_second_submission_reports_coalescing(self, server, capsys):
        args = ["submit", "--url", server.base_url, "--bits", "12", "--watch"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "coalesced" in capsys.readouterr().out

    def test_optimize_submission_prints_result(self, server, capsys):
        assert (
            main(
                [
                    "submit",
                    "--url",
                    server.base_url,
                    "--kind",
                    "optimize",
                    "--bits",
                    "11",
                    "--watch",
                ]
            )
            == 0
        )
        assert '"winner"' in capsys.readouterr().out

    def test_optimize_defaults_work_out_of_the_box(self, server, capsys):
        # The campaign-oriented --bits default must not break the
        # documented optimize mode: with no flags it submits one spec.
        assert (
            main(
                [
                    "submit",
                    "--url",
                    server.base_url,
                    "--kind",
                    "optimize",
                    "--watch",
                ]
            )
            == 0
        )
        assert '"winner"' in capsys.readouterr().out

    def test_optimize_with_axis_bits_is_a_friendly_error(self, server, capsys):
        assert (
            main(
                [
                    "submit",
                    "--url",
                    server.base_url,
                    "--kind",
                    "optimize",
                    "--bits",
                    "10-13",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "single resolution" in err

    def test_unreachable_service_is_a_friendly_error(self, capsys):
        assert main(["submit", "--url", "http://127.0.0.1:1", "--bits", "12"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "cannot reach" in err


class TestJobsCommand:
    def test_lists_jobs_and_stats(self, server, capsys):
        assert (
            main(["submit", "--url", server.base_url, "--bits", "12", "--watch"])
            == 0
        )
        capsys.readouterr()
        assert main(["jobs", "--url", server.base_url, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "done" in out
        assert '"executions": 1' in out

    def test_empty_service(self, server, capsys):
        assert main(["jobs", "--url", server.base_url]) == 0
        assert "no jobs" in capsys.readouterr().out


class TestServeCommand:
    def test_store_path_collision_is_a_friendly_error(self, tmp_path, capsys):
        collision = tmp_path / "not-a-dir"
        collision.write_text("occupied", encoding="utf-8")
        assert main(["serve", "--store", str(collision)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "not a directory" in err


@pytest.fixture
def opened(monkeypatch):
    """Every broker the CLI opens through ``open_broker``, in order."""
    brokers = []
    real = broker_module.open_broker

    def recording(*args, **kwargs):
        brokers.append(real(*args, **kwargs))
        return brokers[-1]

    monkeypatch.setattr(broker_module, "open_broker", recording)
    return brokers


class TestBrokerLocation:
    """``worker --broker`` and ``status --broker`` open one location kind each."""

    def test_worker_opens_a_url_as_http_and_a_path_as_a_directory(
        self, tmp_path, monkeypatch, opened, capsys
    ):
        # No signal handlers and no polling: the loop returns at once.
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        monkeypatch.setattr(WorkerLoop, "run", lambda self, stop=None: {})
        for location in ("http://127.0.0.1:1", str(tmp_path / "fleet")):
            assert main(["worker", "--broker", location, "--ttl", "5"]) == 0
            assert f"on {location}" in capsys.readouterr().out
        assert [type(broker) for broker in opened] == [HttpBroker, DirectoryBroker]
        assert opened[1].root == tmp_path / "fleet" and opened[1].lease_ttl == 5.0

    def test_status_opens_a_url_as_http_and_a_path_as_a_directory(
        self, server, tmp_path, opened, capsys
    ):
        for location in (server.base_url, str(tmp_path / "fleet")):
            assert main(["status", "--broker", location]) == 0
            assert capsys.readouterr().out.startswith("broker ")
        assert [type(broker) for broker in opened] == [HttpBroker, DirectoryBroker]

    @pytest.mark.parametrize("command", ["worker", "status"])
    def test_the_location_flag_is_required(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "--broker" in capsys.readouterr().err.splitlines()[-1]
