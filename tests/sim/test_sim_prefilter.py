"""Unit tests for the fuzz-before-SAT pre-filters."""

import pytest

from repro.logic import BoolFunction, TruthTable
from repro.netlist import Netlist
from repro.sim import ReplayBuffer
from repro.sim.prefilter import (
    fuzz_netlist_vs_function,
    fuzz_netlist_vs_netlist,
    possibility_refute,
)


@pytest.fixture
def and_netlist(library):
    netlist = Netlist("and", library)
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.add_output("y")
    netlist.add_instance("AND2", [a, b], output="y")
    return netlist


class TestFuzzNetlistVsFunction:
    def test_small_space_is_complete(self, and_netlist):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        outcome = fuzz_netlist_vs_function(and_netlist, BoolFunction([a & b]))
        assert outcome.proven and not outcome.refuted

    def test_counterexample_is_genuine(self, and_netlist):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        outcome = fuzz_netlist_vs_function(and_netlist, BoolFunction([a | b]))
        assert outcome.refuted
        word = outcome.counterexample
        bits = [word & 1, (word >> 1) & 1]
        assert (bits[0] & bits[1]) != (bits[0] | bits[1])

    def test_counterexample_feeds_replay_buffer(self, and_netlist):
        replay = ReplayBuffer()
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        outcome = fuzz_netlist_vs_function(
            and_netlist, BoolFunction([a | b]), replay=replay
        )
        assert outcome.counterexample in replay


class TestFuzzNetlistVsNetlist:
    def test_equivalent_and_inequivalent(self, and_netlist, library):
        other = Netlist("and2", library)
        a = other.add_input("a")
        b = other.add_input("b")
        other.add_output("y")
        nand = other.add_instance("NAND2", [a, b]).output
        other.add_instance("INV", [nand], output="y")
        assert fuzz_netlist_vs_netlist(and_netlist, other).proven

        or_netlist = Netlist("or", library)
        a = or_netlist.add_input("a")
        b = or_netlist.add_input("b")
        or_netlist.add_output("y")
        or_netlist.add_instance("OR2", [a, b], output="y")
        assert fuzz_netlist_vs_netlist(and_netlist, or_netlist).refuted

    def test_interface_mismatch_rejected(self, and_netlist, library):
        wide = Netlist("wide", library)
        for name in ("a", "b", "c"):
            wide.add_input(name)
        wide.add_output("y")
        wide.add_instance("AND3", ["a", "b", "c"], output="y")
        with pytest.raises(ValueError):
            fuzz_netlist_vs_netlist(and_netlist, wide)


class TestPossibilityRefute:
    @pytest.fixture
    def camo_nand_netlist(self, library):
        from repro.camo import CamouflageLibrary, camouflage_cell

        camo_nand = camouflage_cell(library["NAND2"])
        merged = CamouflageLibrary([camo_nand]).as_cell_library(include=library)
        netlist = Netlist("tiny", merged)
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        netlist.add_output("y")
        netlist.add_instance("CAMO_NAND2", [a, b], output="y", name="u_camo")
        return netlist, {"u_camo": list(camo_nand.plausible)}

    def test_never_refutes_plausible_candidates(self, camo_nand_netlist):
        netlist, plausible = camo_nand_netlist
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        # Every member of the plausible family must survive the filter.
        for table in plausible["u_camo"]:
            assert possibility_refute(netlist, plausible, BoolFunction([table])) is None
        # AND is not in the family, but 0 and 1 are both achievable at every
        # word, so the (sound, incomplete) filter cannot refute it either.
        assert possibility_refute(netlist, plausible, BoolFunction([a & b])) is None

    def test_refutes_unachievable_outputs(self, library):
        # A plain AND instance (no camouflage freedom at all): any candidate
        # differing anywhere is refuted by the possibility analysis.
        netlist = Netlist("and", library)
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        netlist.add_output("y")
        netlist.add_instance("AND2", [a, b], output="y")
        candidate = BoolFunction([TruthTable.variable(0, 2)])
        word = possibility_refute(netlist, {}, candidate)
        assert word is not None
        bits = [word & 1, (word >> 1) & 1]
        assert (bits[0] & bits[1]) != bits[0]
