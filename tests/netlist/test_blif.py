"""Unit tests for BLIF reading and writing."""

import pytest

from repro.netlist import (
    CONST0_NET,
    CONST1_NET,
    BlifError,
    Netlist,
    extract_function,
    read_blif,
    standard_cell_library,
    write_blif,
)
from repro.sat.equivalence import check_netlist_equivalence


class TestWriteRead:
    def test_roundtrip_preserves_function(self, present_netlist, present, library):
        text = write_blif(present_netlist)
        parsed = read_blif(text, library)
        assert parsed.primary_inputs == present_netlist.primary_inputs
        assert parsed.primary_outputs == present_netlist.primary_outputs
        assert extract_function(parsed).lookup_table() == present.lookup_table()

    def test_write_contains_gate_lines(self, present_netlist):
        text = write_blif(present_netlist)
        assert text.startswith(".model")
        assert ".gate" in text
        assert text.rstrip().endswith(".end")

    def test_model_name_override(self, present_netlist):
        text = write_blif(present_netlist, model_name="widget")
        assert ".model widget" in text

    def test_constant_nets_round_trip(self, library):
        netlist = Netlist("consts", library)
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        netlist.add_instance("AND2", [a, CONST1_NET], output="y1")
        netlist.add_instance("OR2", [b, CONST0_NET], output="y0")
        netlist.add_output("y1")
        netlist.add_output("y0")
        text = write_blif(netlist)
        assert f".names {CONST0_NET}" in text and f".names {CONST1_NET}" in text
        reparsed = read_blif(text, library)
        driven = {instance.output for instance in reparsed.instances}
        assert not driven & {CONST0_NET, CONST1_NET}
        # The SAT encoding binds a driven net to a fresh variable, so a
        # reserved net that drives itself would become a free input here.
        assert check_netlist_equivalence(netlist, reparsed, prefilter=False)


class TestReadNames:
    def test_names_block_mapped_to_cell(self, library):
        text = """
.model small
.inputs a b
.outputs y
.names a b y
11 1
.end
"""
        netlist = read_blif(text, library)
        assert netlist.num_instances() == 1
        assert netlist.instances[0].cell == "AND2"

    def test_names_block_with_permuted_or(self, library):
        text = """
.model small
.inputs a b
.outputs y
.names a b y
1- 1
-1 1
.end
"""
        netlist = read_blif(text, library)
        assert netlist.instances[0].cell == "OR2"
        function = extract_function(netlist)
        assert function.evaluate_word(0b00) == 0
        assert function.evaluate_word(0b01) == 1

    def test_constant_one_block(self, library):
        text = """
.model c
.inputs a
.outputs y
.names y
1
.end
"""
        netlist = read_blif(text, library)
        function = extract_function(netlist)
        assert function.evaluate_word(0) == 1
        assert function.evaluate_word(1) == 1

    def test_unmappable_names_block_rejected(self, library):
        text = """
.model bad
.inputs a b c
.outputs y
.names a b c y
101 1
010 1
.end
"""
        with pytest.raises(BlifError):
            read_blif(text, library)

    def test_comments_and_continuations(self, library):
        text = """
# a comment
.model c
.inputs a \\
b
.outputs y
.gate AND2 A=a B=b Y=y
.end
"""
        netlist = read_blif(text, library)
        assert netlist.primary_inputs == ["a", "b"]
        assert netlist.instances[0].cell == "AND2"


class TestErrors:
    def test_unknown_gate(self, library):
        with pytest.raises(BlifError):
            read_blif(".model m\n.inputs a\n.outputs y\n.gate FOO A=a Y=y\n.end\n", library)

    def test_missing_pin_binding(self, library):
        with pytest.raises(BlifError):
            read_blif(".model m\n.inputs a\n.outputs y\n.gate INV A=a\n.end\n", library)

    def test_empty_text(self, library):
        with pytest.raises(BlifError):
            read_blif("", library)

    def test_unsupported_construct(self, library):
        with pytest.raises(BlifError):
            read_blif(".model m\n.latch a b\n.end\n", library)

    def test_stray_cube_line(self, library):
        with pytest.raises(BlifError):
            read_blif(".model m\n.inputs a\n11 1\n.end\n", library)

    def test_contradicting_constant_definition(self, library):
        with pytest.raises(BlifError):
            read_blif(f".model m\n.inputs a\n.outputs a\n.names {CONST1_NET}\n.end\n", library)
        with pytest.raises(BlifError):
            read_blif(f".model m\n.inputs a\n.outputs a\n.names {CONST0_NET}\n1\n.end\n", library)
