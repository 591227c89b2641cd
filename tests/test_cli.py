"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

WIDE30 = str(
    Path(__file__).resolve().parents[1] / "examples" / "circuits" / "wide30.blif"
)


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_obfuscate_defaults(self):
        args = build_parser().parse_args(["obfuscate"])
        assert args.family == "PRESENT"
        assert args.count == 2

    def test_table1_profile_argument(self):
        args = build_parser().parse_args(["table1", "--profile", "quick"])
        assert args.profile == "quick"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_campaign_arguments(self):
        args = build_parser().parse_args(
            ["campaign", "--workload", "AES:2", "--workload", "PRESENT:4",
             "--state-dir", "/tmp/x", "--limit", "1"]
        )
        assert args.workload == ["AES:2", "PRESENT:4"]
        assert args.state_dir == "/tmp/x"
        assert args.limit == 1

    def test_invalid_workload_selector_rejected(self):
        from repro.cli import _parse_workload_selector

        with pytest.raises(SystemExit):
            _parse_workload_selector("AES")
        with pytest.raises(SystemExit):
            _parse_workload_selector("AES:two")
        assert _parse_workload_selector("aes:2") == ("AES", 2)

    def test_campaign_robustness_flags(self):
        from repro.cli import _campaign_robustness_kwargs

        args = build_parser().parse_args(
            ["campaign", "--workload", "PRESENT:2",
             "--lease-ttl", "5", "--retries", "2",
             "--solve-budget", "conflicts=100,seconds=2.5"]
        )
        kwargs = _campaign_robustness_kwargs(args)
        assert kwargs["lease_ttl"] == 5.0
        assert kwargs["retry_policy"].max_attempts == 2
        assert kwargs["solve_budget"].max_conflicts == 100
        assert kwargs["solve_budget"].max_seconds == 2.5
        # Defaults contribute nothing: the runner's defaults apply.
        bare = build_parser().parse_args(["campaign", "--workload", "PRESENT:2"])
        assert _campaign_robustness_kwargs(bare) == {}

    def test_campaign_bad_solve_budget_is_clean_error(self):
        from repro.cli import _campaign_robustness_kwargs

        args = build_parser().parse_args(
            ["campaign", "--solve-budget", "gremlins=9"]
        )
        with pytest.raises(SystemExit) as info:
            _campaign_robustness_kwargs(args)
        assert "invalid --solve-budget" in str(info.value)

    @pytest.mark.parametrize("spec", ["conflicts=inf", "seconds=nan", "conflicts=2.7"])
    def test_campaign_unusable_solve_budget_value_is_clean_error(self, spec):
        # Non-finite and fractional values are refused with the usage error,
        # not a traceback, and the message names the entry.
        from repro.cli import _campaign_robustness_kwargs

        args = build_parser().parse_args(["campaign", "--solve-budget", spec])
        with pytest.raises(SystemExit) as info:
            _campaign_robustness_kwargs(args)
        assert "invalid --solve-budget" in str(info.value)
        assert spec in str(info.value)


class TestCommands:
    def test_obfuscate_writes_outputs(self, tmp_path, capsys):
        verilog_path = tmp_path / "camo.v"
        blif_path = tmp_path / "camo.blif"
        exit_code = main(
            [
                "obfuscate",
                "--count", "2",
                "--population", "4",
                "--generations", "1",
                "--report",
                "--verilog", str(verilog_path),
                "--blif", str(blif_path),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "camouflaged area" in captured.out
        assert "Area report" in captured.out
        assert verilog_path.exists()
        assert blif_path.exists()
        assert "module" in verilog_path.read_text()
        assert ".model" in blif_path.read_text()

    def test_attack_command(self, capsys):
        exit_code = main(
            ["attack", "--count", "2", "--population", "4", "--generations", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "plausible=True" in captured.out

    def test_campaign_duplicate_workload_is_clean_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["campaign", "--workload", "PRESENT:2", "--workload", "PRESENT:2"])
        assert "invalid campaign" in str(info.value)

    def test_campaign_unknown_family_is_clean_error(self):
        with pytest.raises(SystemExit) as info:
            main(["campaign", "--workload", "PRESNT:2"])
        assert "unknown workload family" in str(info.value)

    def test_campaign_count_out_of_range_is_clean_error(self):
        with pytest.raises(SystemExit) as info:
            main(["campaign", "--workload", "PRESENT:99"])
        assert "exceeds the family maximum" in str(info.value)
        with pytest.raises(SystemExit) as info:
            main(["campaign", "--workload", "RANDOM:0"])
        assert "count must be at least 1" in str(info.value)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["campaign", "--workload", "PRESENT:2", "--windowing", "hardness",
              "--probe-hardness", "--decoys", "3", "--limit", "0"], "--decoys"),
            (["campaign", "--blif", WIDE30, "--with-attack", "--workload", "AES:2",
              "--limit", "0"], "--workload"),
            (["obfuscate", "--count", "2", "--population", "4", "--generations", "1",
              "--attack"], "--attack"),
            (["obfuscate", "--blif-in", WIDE30, "--family", "DES", "--population", "4",
              "--generations", "1", "--max-window-inputs", "6", "--decoys", "0"],
             "--family"),
        ],
        ids=["campaign", "campaign-blif", "obfuscate", "obfuscate-blif-in"],
    )
    def test_flags_of_the_other_mode_are_rejected(self, argv, flag):
        """A flag the chosen mode would silently ignore is an argument error."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert flag in str(info.value)

    def test_campaign_list_workloads(self, capsys):
        assert main(["campaign", "--list-workloads"]) == 0
        captured = capsys.readouterr()
        for family in ("PRESENT", "DES", "AES", "RANDOM", "BLIF"):
            assert family in captured.out

    def test_campaign_command_resumes(self, tmp_path, capsys):
        state_dir = str(tmp_path / "state")
        csv_path = tmp_path / "campaign.csv"
        argv = [
            "campaign",
            "--workload", "PRESENT:2",
            "--population", "4",
            "--generations", "1",
            "--state-dir", state_dir,
            "--csv", str(csv_path),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "1/1 jobs complete" in captured.out
        assert "PRESENT" in captured.out
        assert csv_path.exists()
        # Second invocation restores the finished row from the state dir.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "cached (state matches)" in captured.out
        assert "1 cached" in captured.out

    def test_campaign_exits_1_when_a_row_fails_verification(
        self, tmp_path, capsys, monkeypatch
    ):
        import dataclasses

        import repro.evaluation.table1 as table1

        run_entry = table1.run_table1_entry
        monkeypatch.setattr(
            table1,
            "run_table1_entry",
            lambda *args, **kwargs: dataclasses.replace(
                run_entry(*args, **kwargs), verification_ok=False
            ),
        )
        argv = [
            "campaign",
            "--workload", "PRESENT:2",
            "--population", "4",
            "--generations", "1",
            "--state-dir", str(tmp_path / "state"),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "1/1 jobs complete" in captured.out
        assert "verification failed: table1_PRESENT_x2" in captured.out
        # The cached row keeps its verdict.
        monkeypatch.undo()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "cached (state matches)" in captured.out
        assert "verification failed: table1_PRESENT_x2" in captured.out
