"""Tests for the service-facing CLI verbs (`serve`, `campaign --submit`)."""

import json
import threading

import pytest

from repro.cli import build_parser, main
from repro.service.server import ServiceThread
from repro.service.worker import WorkerAgent


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.root == ""
        assert args.lease_ttl == 0.0

    def test_campaign_submit_flags(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "--workload",
                "PRESENT:2",
                "--submit",
                "http://localhost:8765",
                "--no-wait",
            ]
        )
        assert args.submit == "http://localhost:8765"
        assert args.no_wait is True
        bare = build_parser().parse_args(
            ["campaign", "--workload", "PRESENT:2"]
        )
        assert bare.submit == ""
        assert bare.no_wait is False

    def test_cache_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        args = build_parser().parse_args(["cache", "compact", "--dir", "/x"])
        assert args.action == "compact"
        assert args.dir == "/x"


class TestServeCommand:
    def test_serve_without_root_is_a_clean_error(self):
        with pytest.raises(SystemExit) as info:
            main(["serve"])
        assert "root" in str(info.value)


class TestSubmitCommand:
    def test_submit_rejects_blif_campaigns(self, tmp_path):
        blif = tmp_path / "x.blif"
        blif.write_text(".model x\n.end\n", encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "campaign",
                    "--blif",
                    str(blif),
                    "--submit",
                    "http://localhost:1",
                ]
            )
        assert "--blif" in str(info.value)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--state-dir", "state"),
            ("--limit", "1"),
            ("--jobs", "2"),
            ("--lease-ttl", "5"),
            ("--retries", "2"),
            ("--solve-budget", "conflicts=100"),
        ],
    )
    def test_submit_rejects_runner_only_flags(self, flag, value):
        """The fleet runs on the coordinator's settings: say so, send nothing."""
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "campaign",
                    "--workload",
                    "PRESENT:2",
                    flag,
                    value,
                    "--submit",
                    "http://127.0.0.1:1",
                ]
            )
        assert flag in str(info.value)
        assert "submit failed" not in str(info.value)

    def test_submit_unreachable_coordinator_is_a_clean_error(self):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "campaign",
                    "--workload",
                    "PRESENT:2",
                    "--submit",
                    "http://127.0.0.1:1",
                ]
            )
        assert "submit failed" in str(info.value)

    def test_submit_no_wait_posts_and_returns(self, tmp_path, capsys):
        with ServiceThread(root=str(tmp_path)) as service:
            exit_code = main(
                [
                    "campaign",
                    "--workload",
                    "PRESENT:2",
                    "--profile",
                    "quick",
                    "--submit",
                    service.url,
                    "--no-wait",
                ]
            )
            assert exit_code == 0
            output = capsys.readouterr().out
            assert "created" in output
            listing = service.service._handles
            assert len(listing) == 1
            # Resubmission dedupes (and says so).
            assert (
                main(
                    [
                        "campaign",
                        "--workload",
                        "PRESENT:2",
                        "--profile",
                        "quick",
                        "--submit",
                        service.url,
                        "--no-wait",
                    ]
                )
                == 0
            )
            assert "already submitted" in capsys.readouterr().out
            assert len(service.service._handles) == 1

    def test_submit_waits_for_a_worker_fleet_and_writes_artifacts(
        self, tmp_path, capsys
    ):
        """The full operator loop: submit, fleet executes, artifacts land.

        A real worker agent polls in the background with no pinned
        campaign — it discovers the submission, executes it, and the CLI's
        wait returns with artifacts fetched over HTTP.
        """
        root = tmp_path / "root"
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        bench_dir = tmp_path / "bench"
        with ServiceThread(root=str(root), poll=0.02) as service:
            agent = WorkerAgent(
                service.url, poll=0.05, remote_cache=False, log=None
            )
            worker = threading.Thread(
                target=agent.run, kwargs={"max_jobs": 1}, daemon=True
            )
            worker.start()
            exit_code = main(
                [
                    "campaign",
                    "--workload",
                    "PRESENT:2",
                    "--profile",
                    "quick",
                    "--submit",
                    service.url,
                    "--json",
                    str(json_path),
                    "--csv",
                    str(csv_path),
                    "--bench-dir",
                    str(bench_dir),
                ]
            )
            worker.join(timeout=120)
            assert exit_code == 0
        output = capsys.readouterr().out
        assert "1/1 jobs complete (0 failed)" in output
        assert "robustness" in output
        document = json.loads(json_path.read_text(encoding="utf-8"))
        assert document["campaign"]["failed"] == 0
        assert csv_path.read_text(encoding="utf-8").startswith("job_id,")
        bench_files = list(bench_dir.iterdir())
        assert len(bench_files) == 1
        assert bench_files[0].name.startswith("BENCH_campaign_")
