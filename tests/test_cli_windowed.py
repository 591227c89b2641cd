"""Tests for the windowed (BLIF-in) CLI paths."""

import pytest

from repro.netlist.generate import random_netlist as build_random_netlist
from repro.cli import build_parser, main
from repro.flow.target import obfuscate_netlist
from repro.ga.engine import GAParameters
from repro.netlist.blif import read_blif, write_blif
from repro.netlist.library import standard_cell_library
from repro.netlist.verilog import write_verilog


@pytest.fixture()
def wide_blif_file(tmp_path, library):
    netlist = build_random_netlist(
        23, library, num_inputs=20, num_cells=14, num_outputs=4, name="wide20"
    )
    path = tmp_path / "wide20.blif"
    path.write_text(write_blif(netlist), encoding="utf-8")
    return str(path)


#: A circuit with no gates: it decomposes into zero windows.
WIRES_BLIF = ".model wires\n.inputs a b\n.outputs a\n.end\n"

#: One inverter: its 1-input window has only two decoy tables.
INV_BLIF = ".model inv1\n.inputs a\n.outputs y\n.gate INV A=a Y=y\n.end\n"


class TestWindowedParser:
    def test_obfuscate_windowed_arguments(self):
        args = build_parser().parse_args(
            ["obfuscate", "--blif-in", "a.blif", "--max-window-inputs", "6",
             "--decoys", "2", "--attack"]
        )
        assert args.blif_in == "a.blif"
        assert args.max_window_inputs == 6
        assert args.decoys == 2
        assert args.attack

    def test_campaign_blif_arguments(self):
        args = build_parser().parse_args(
            ["campaign", "--blif", "a.blif", "--decoys", "0",
             "--with-decamouflage", "--with-random-camo"]
        )
        assert args.blif == "a.blif"
        assert args.decoys == 0
        assert args.with_decamouflage and args.with_random_camo


class TestWindowedCommands:
    def test_obfuscate_blif_in_round_trip(self, wide_blif_file, tmp_path, capsys):
        out_blif = tmp_path / "camo.blif"
        exit_code = main(
            ["obfuscate", "--blif-in", wide_blif_file,
             "--max-window-inputs", "6", "--decoys", "0",
             "--population", "4", "--generations", "1",
             "--attack", "--attack-queries", "64", "--presample", "16",
             "--blif", str(out_blif)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "windowed obfuscation" in captured
        assert "oracle-guided attack" in captured
        # The stitched output parses over the camouflage-extended library.
        from repro.camo.library import default_camouflage_library

        base = standard_cell_library()
        library = default_camouflage_library(base).as_cell_library(include=base)
        stitched = read_blif(out_blif.read_text(encoding="utf-8"), library)
        assert stitched.primary_inputs  # 20 data inputs survived
        assert len(stitched.primary_inputs) == 20

    def test_campaign_blif_resumes(self, wide_blif_file, tmp_path, capsys):
        state_dir = str(tmp_path / "state")
        first = main(
            ["campaign", "--blif", wide_blif_file, "--name", "win",
             "--max-window-inputs", "6", "--decoys", "0",
             "--state-dir", state_dir, "--limit", "2"]
        )
        capsys.readouterr()
        assert first == 0
        second = main(
            ["campaign", "--blif", wide_blif_file, "--name", "win",
             "--max-window-inputs", "6", "--decoys", "0",
             "--state-dir", state_dir,
             "--bench-dir", str(tmp_path / "bench")]
        )
        captured = capsys.readouterr().out
        assert second == 0
        assert "cached (state matches)" in captured
        assert "validation" in captured
        assert (tmp_path / "bench" / "BENCH_campaign_win.json").is_file()

    def test_obfuscate_blif_in_matches_obfuscate_netlist(
        self, wide_blif_file, tmp_path, capsys
    ):
        """The CLI's window jobs and the in-memory loop write the same design."""
        out_blif, out_verilog = tmp_path / "camo.blif", tmp_path / "camo.v"
        exit_code = main(
            ["obfuscate", "--blif-in", wide_blif_file,
             "--max-window-inputs", "6", "--decoys", "1",
             "--population", "4", "--generations", "1",
             "--blif", str(out_blif), "--verilog", str(out_verilog)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        with open(wide_blif_file, "r", encoding="utf-8") as handle:
            netlist = read_blif(handle.read(), standard_cell_library())
        result = obfuscate_netlist(
            netlist,
            max_window_inputs=6,
            decoys_per_window=1,
            ga_parameters=GAParameters(population_size=4, generations=1, seed=1),
            seed=1,
        )
        assert out_blif.read_text(encoding="utf-8") == write_blif(result.netlist)
        assert out_verilog.read_text(encoding="utf-8") == write_verilog(result.netlist)
        assert result.summary() in captured

    def test_failed_window_exits_1_naming_the_job(self, tmp_path, capsys):
        path = tmp_path / "inv1.blif"
        path.write_text(INV_BLIF, encoding="utf-8")
        exit_code = main(["obfuscate", "--blif-in", str(path), "--decoys", "3"])
        captured = capsys.readouterr()
        assert exit_code == 1
        failures = [
            line for line in captured.out.splitlines() if line.startswith("window_")
        ]
        assert len(failures) == 1
        assert failures[0].startswith(
            "window_000: error ValueError: could not generate 3 distinct decoys"
        )
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "argv",
        [["obfuscate", "--blif-in"], ["campaign", "--blif"]],
        ids=["obfuscate", "campaign"],
    )
    def test_zero_windows(self, tmp_path, capsys, argv):
        """A circuit with no gates stitches an empty set of windows."""
        path = tmp_path / "wires.blif"
        path.write_text(WIRES_BLIF, encoding="utf-8")
        assert main(argv + [str(path)]) == 0
        captured = capsys.readouterr().out
        assert "windows          : 0 " in captured
        assert "validation       : windows 0/0 ok" in captured
