"""The ``repro-adc campaign`` command and the engine-era help text."""

import json

import pytest

from repro.cli import EPILOG, main


class TestCampaignCommand:
    def test_campaign_writes_store(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert (
            main(
                [
                    "campaign",
                    "--bits",
                    "10-12",
                    "--rates",
                    "20,40,60",
                    "--quiet",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "Campaign comparison" in stdout
        assert "FoM" in stdout

        lines = (out / "results.jsonl").read_text().splitlines()
        assert len(lines) == 9  # 3 resolutions x 3 rates
        record = json.loads(lines[0])
        assert record["mode"] == "analytic"
        assert record["winner"]
        assert (out / "report.txt").exists()
        assert (out / "meta.json").exists()

    def test_campaign_report_only_without_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # any accidental writes land here
        assert main(["campaign", "--bits", "12", "--quiet"]) == 0
        assert "Campaign comparison" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_campaign_bad_axis_is_a_friendly_error(self, capsys):
        assert main(["campaign", "--bits", "banana", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "banana" in err and "Traceback" not in err

    def test_campaign_writes_manifest(self, tmp_path):
        out = tmp_path / "store"
        assert (
            main(["campaign", "--bits", "10-11", "--quiet", "--out", str(out)]) == 0
        )
        assert (out / "manifest.json").exists()
        assert (out / "checkpoints").is_dir()

    def test_bad_shard_spec_is_a_friendly_error(self, capsys):
        assert (
            main(["campaign", "--bits", "10-11", "--quiet", "--shard", "3/2"]) == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "shard" in err

    def test_resume_without_out_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--bits", "10-11", "--quiet", "--resume"])
        assert "--resume requires --out" in capsys.readouterr().err


class TestShardMergeCommands:
    def test_shard_run_and_merge_match_unsharded(self, tmp_path, capsys):
        args = ["campaign", "--bits", "10-12", "--rates", "20,40", "--quiet"]
        assert main(args + ["--out", str(tmp_path / "ref")]) == 0
        for k in (1, 2):
            assert (
                main(
                    args
                    + ["--out", str(tmp_path / f"shard{k}"), "--shard", f"{k}/2"]
                )
                == 0
            )
        assert (
            main(
                [
                    "merge",
                    str(tmp_path / "shard1"),
                    str(tmp_path / "shard2"),
                    "--out",
                    str(tmp_path / "merged"),
                ]
            )
            == 0
        )
        assert "Campaign comparison" in capsys.readouterr().out
        for name in ("results.jsonl", "report.txt", "manifest.json"):
            assert (tmp_path / "merged" / name).read_bytes() == (
                tmp_path / "ref" / name
            ).read_bytes(), name

    def test_merge_refuses_mismatched_stores(self, tmp_path, capsys):
        base = ["--rates", "20,40", "--quiet"]
        assert (
            main(
                ["campaign", "--bits", "10-12", *base]
                + ["--out", str(tmp_path / "a"), "--shard", "1/2"]
            )
            == 0
        )
        assert (
            main(
                ["campaign", "--bits", "10-13", *base]
                + ["--out", str(tmp_path / "b"), "--shard", "2/2"]
            )
            == 0
        )
        capsys.readouterr()  # drop the campaign progress output
        assert main(["merge", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "grid digest" in err

    def test_resume_replays_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "store")
        args = ["campaign", "--bits", "10-11", "--quiet", "--out", out]
        assert main(args) == 0
        first = (tmp_path / "store" / "results.jsonl").read_bytes()
        assert main(args + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "replayed from checkpoints" in err
        assert (tmp_path / "store" / "results.jsonl").read_bytes() == first


class TestFriendlyErrors:
    """Bad backend/queue-dir/store-dir combinations fail with one line."""

    def test_queue_dir_without_queue_backend_names_valid_choices(
        self, tmp_path, capsys
    ):
        assert (
            main(
                [
                    "campaign",
                    "--bits",
                    "10",
                    "--quiet",
                    "--queue-dir",
                    str(tmp_path / "q"),
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "--backend queue" in err
        assert "broker, process, queue, serial" in err

    def test_out_path_collision_is_a_friendly_error(self, tmp_path, capsys):
        collision = tmp_path / "occupied"
        collision.write_text("a file, not a store", encoding="utf-8")
        assert (
            main(["campaign", "--bits", "10", "--quiet", "--out", str(collision)])
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "not a directory" in err

    def test_unknown_corner_names_registered_tags(self, capsys):
        assert (
            main(["campaign", "--bits", "10", "--quiet", "--corners", "ff"]) == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "nom" in err and "slow" in err

    def test_merge_of_non_store_directory_is_friendly(self, tmp_path, capsys):
        assert main(["merge", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "manifest.json" in err


class TestRemovedKernelFlags:
    """The flow parsers refuse every removed kernel flag and the thread backend.

    ``campaign`` stands for the engine flags every flow command shares;
    ``submit`` has its own parser.
    """

    @pytest.mark.parametrize("command", ["campaign", "submit"])
    @pytest.mark.parametrize(
        "flag",
        [
            ["--dc-kernel", "batched"],
            ["--speculation", "8"],
            ["--no-speculation"],
            ["--eval-kernel", "legacy"],
            ["--behavioral-kernel", "legacy"],
        ],
        ids=[
            "dc-kernel",
            "speculation",
            "no-speculation",
            "eval-kernel",
            "behavioral-kernel",
        ],
    )
    def test_removed_flags_fail_with_argparse_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro-adc: error: unrecognized arguments: {' '.join(flag)}" in err

    @pytest.mark.parametrize("command", ["campaign", "submit"])
    def test_thread_backend_fails_with_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--backend", "thread"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            f"repro-adc {command}: error: argument --backend: invalid choice: "
            "'thread'"
        )


class TestShardUnitGuard:
    def test_shard_count_above_units_is_a_friendly_error(self, capsys):
        # One synthesis corner = one ledger-independent unit; asking for
        # two shards leaves one empty, so the CLI refuses up front.
        assert (
            main(
                [
                    "campaign",
                    "--bits",
                    "10",
                    "--modes",
                    "synthesis",
                    "--quiet",
                    "--shard",
                    "2/2",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("repro-adc: error:")
        assert "ledger-independent" in err
        assert "corner" in err and "Traceback" not in err

    def test_corner_sweep_unlocks_synthesis_sharding(self, tmp_path, capsys):
        # Two corners = two synthesis units: the same shard spec that the
        # guard refuses above is valid once the grid sweeps corners.
        out = tmp_path / "shard1"
        assert (
            main(
                [
                    "campaign",
                    "--bits",
                    "10",
                    "--modes",
                    "synthesis",
                    "--corners",
                    "nom,slow",
                    "--budget",
                    "60",
                    "--retarget-budget",
                    "30",
                    "--no-verify",
                    "--quiet",
                    "--shard",
                    "1/2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = (out / "results.jsonl").read_text().splitlines()
        assert len(lines) == 1  # exactly one corner's synthesis chain


class TestCornerAxis:
    def test_corner_campaign_runs_and_labels_records(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert (
            main(
                [
                    "campaign",
                    "--bits",
                    "10-11",
                    "--corners",
                    "nom,slow",
                    "--quiet",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = (out / "results.jsonl").read_text().splitlines()
        assert len(lines) == 4  # 2 resolutions x 2 corners
        records = [json.loads(line) for line in lines]
        assert {r["corner"] for r in records} == {"nom", "slow"}
        assert {r["tech"] for r in records} == {"cmos025", "cmos025_slow"}
        assert "k10_40M_analytic_slow" in {r["label"] for r in records}


class TestHelpEpilog:
    def test_epilog_describes_flowconfig_era_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        # The epilog must describe the engine flags of FlowConfig, not the
        # pre-engine flow, and advertise every registered backend.
        for fragment in (
            "--backend",
            "serial",
            "process",
            "queue",
            "broker",
            "--cache-dir",
            "REPRO_ADC_CACHE",
            "--retarget-budget",
            "campaign",
            "results.jsonl",
        ):
            assert fragment in help_text, f"--help is missing {fragment!r}"

    def test_epilog_flags_exist_on_parser(self):
        # Every --flag the epilog mentions must actually be accepted by the
        # flow commands, so the help text cannot rot.
        import re

        flags = set(re.findall(r"--[a-z-]+", EPILOG))
        with pytest.raises(SystemExit):
            main(["explore", "--help"])
        # argparse exits before parsing; inspect the parser by running
        # each flag through a real invocation instead.
        assert flags  # sanity
        argv = ["campaign", "--bits", "12", "--quiet"]
        for flag in sorted(flags - {"--backend", "--modes", "--bits", "--rates"}):
            if flag in ("--no-verify",):
                argv += [flag]
            elif flag in ("--workers",):
                argv += [flag, "1"]
            elif flag in ("--budget", "--retarget-budget"):
                argv += [flag, "50"]
            elif flag == "--cache-dir":
                continue  # exercised in runner tests; avoid disk writes here
            elif flag == "--out":
                continue
        assert main(argv) == 0
