"""Unit tests for the standard-cell technology mapper."""

import random

import pytest

from repro.aig import Aig, aig_from_function, aig_from_tables
from repro.logic import BoolFunction, TruthTable
from repro.netlist import CellLibrary, extract_function, standard_cell_library, validate_netlist
from repro.synth import MappingError, map_to_cells, optimize_aig


class TestMapping:
    def test_simple_and(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output(aig.and_(a, b), "y")
        netlist = map_to_cells(aig)
        assert validate_netlist(netlist) == []
        assert extract_function(netlist).lookup_table() == [0, 0, 0, 1]
        # One AND2 (or NAND2+INV) should suffice; area must stay small.
        assert netlist.area() <= 2.0

    def test_inverted_output(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output(Aig.negate(aig.and_(a, b)), "y")
        netlist = map_to_cells(aig)
        assert extract_function(netlist).lookup_table() == [1, 1, 1, 0]
        histogram = netlist.cell_histogram()
        assert histogram.get("NAND2", 0) >= 1 or histogram.get("INV", 0) >= 1

    def test_wide_and_uses_multi_input_gate(self):
        aig = Aig()
        literals = [aig.add_input() for _ in range(4)]
        aig.add_output(aig.and_many(literals), "y")
        netlist = map_to_cells(aig)
        histogram = netlist.cell_histogram()
        assert any(cell in histogram for cell in ("AND4", "AND3", "NAND4", "NAND3"))
        assert extract_function(netlist).output(0).count_ones() == 1

    def test_constant_output(self):
        aig = Aig()
        aig.add_input("a")
        aig.add_output(1, "one")
        aig.add_output(0, "zero")
        netlist = map_to_cells(aig)
        function = extract_function(netlist)
        assert function.evaluate_word(0) == 0b01
        assert function.evaluate_word(1) == 0b01

    def test_output_directly_from_input(self):
        aig = Aig()
        a = aig.add_input("a")
        aig.add_output(a, "y")
        aig.add_output(Aig.negate(a), "ny")
        netlist = map_to_cells(aig)
        function = extract_function(netlist)
        assert function.evaluate_word(0) == 0b10
        assert function.evaluate_word(1) == 0b01

    def test_shared_output_literals(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        node = aig.and_(a, b)
        aig.add_output(node, "y0")
        aig.add_output(node, "y1")
        netlist = map_to_cells(aig)
        function = extract_function(netlist)
        assert function.evaluate_word(0b11) == 0b11
        assert function.evaluate_word(0b01) == 0b00

    def test_functional_equivalence_on_random_functions(self):
        rng = random.Random(31)
        for _ in range(10):
            tables = [TruthTable(4, rng.getrandbits(16)) for _ in range(2)]
            aig = aig_from_tables(tables)
            netlist = map_to_cells(aig)
            assert validate_netlist(netlist) == []
            assert list(extract_function(netlist).outputs) == tables

    def test_present_mapping_quality(self, present):
        netlist = map_to_cells(aig_from_function(present))
        # The PRESENT S-box is ~30 GE in the paper's library; our simple-gate
        # mapper should land in the same ballpark (well under 3x).
        assert netlist.area() < 90.0

    def test_missing_cells_rejected(self, present):
        tiny = CellLibrary("tiny", [standard_cell_library()["INV"]])
        with pytest.raises(MappingError):
            map_to_cells(aig_from_function(present), tiny)

    def test_requested_output_names_kept(self, present):
        netlist = map_to_cells(aig_from_function(present))
        assert netlist.primary_outputs == list(present.output_names)


class TestCompaction:
    """``map_to_cells`` maps an AIG as ``Aig.compact`` leaves it, copying it
    only when compaction changes it (the mapper differential test's
    ``dead_fanout`` case pins a dead node)."""

    def test_optimized_aig_is_mapped_without_a_copy(self, present, monkeypatch):
        aig = optimize_aig(aig_from_function(present))

        def no_copy(self, name=None):
            raise AssertionError("a compact AIG was copied")

        monkeypatch.setattr(Aig, "compact", no_copy)
        netlist = map_to_cells(aig)
        assert list(extract_function(netlist).outputs) == list(present.outputs)

    def test_late_input_is_compacted(self, monkeypatch):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        x = aig.and_(a, b)
        c = aig.add_input("c")
        aig.add_output(aig.and_(x, c), "y")
        copied = []
        compact = Aig.compact

        def counting(self, name=None):
            copied.append(self)
            return compact(self, name)

        monkeypatch.setattr(Aig, "compact", counting)
        netlist = map_to_cells(aig)
        assert copied == [aig]
        assert extract_function(netlist).lookup_table() == [0] * 7 + [1]
