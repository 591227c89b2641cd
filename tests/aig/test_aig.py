"""Unit tests for the AIG data structure."""

import pytest

from repro.aig import FALSE_LIT, TRUE_LIT, Aig, AigError
from repro.logic import TruthTable


@pytest.fixture
def xor_aig():
    aig = Aig("xor")
    a = aig.add_input("a")
    b = aig.add_input("b")
    aig.add_output(aig.xor_(a, b), "y")
    return aig


class TestConstruction:
    def test_simplification_rules(self):
        aig = Aig()
        a = aig.add_input()
        assert aig.and_(a, FALSE_LIT) == FALSE_LIT
        assert aig.and_(FALSE_LIT, a) == FALSE_LIT
        assert aig.and_(a, TRUE_LIT) == a
        assert aig.and_(TRUE_LIT, a) == a
        assert aig.and_(a, a) == a
        assert aig.and_(a, Aig.negate(a)) == FALSE_LIT
        assert aig.num_ands == 0

    def test_structural_hashing(self):
        aig = Aig()
        a = aig.add_input()
        b = aig.add_input()
        first = aig.and_(a, b)
        second = aig.and_(b, a)
        assert first == second
        assert aig.num_ands == 1

    def test_or_xor_mux(self):
        aig = Aig()
        a = aig.add_input()
        b = aig.add_input()
        s = aig.add_input()
        aig.add_output(aig.or_(a, b), "or")
        aig.add_output(aig.xor_(a, b), "xor")
        aig.add_output(aig.mux_(s, a, b), "mux")
        tables = aig.output_tables()
        va = TruthTable.variable(0, 3)
        vb = TruthTable.variable(1, 3)
        vs = TruthTable.variable(2, 3)
        assert tables[0] == va | vb
        assert tables[1] == va ^ vb
        assert tables[2] == (vs & va) | (~vs & vb)

    def test_and_many_or_many(self):
        aig = Aig()
        literals = [aig.add_input() for _ in range(5)]
        aig.add_output(aig.and_many(literals), "and")
        aig.add_output(aig.or_many(literals), "or")
        aig.add_output(aig.and_many([]), "true")
        aig.add_output(aig.or_many([]), "false")
        tables = aig.output_tables()
        assert tables[0].count_ones() == 1
        assert (~tables[1]).count_ones() == 1
        assert tables[2].is_constant_one()
        assert tables[3].is_constant_zero()

    def test_invalid_literal_rejected(self):
        aig = Aig()
        a = aig.add_input()
        with pytest.raises(AigError):
            aig.and_(a, 999)
        # A negative literal's node index is negative, so it needs its own test.
        with pytest.raises(AigError, match="literal -1 references a non-existent node"):
            aig.and_(a, -1)
        with pytest.raises(AigError, match="literal -2 references a non-existent node"):
            aig.and_(-2, a)
        with pytest.raises(AigError):
            aig.add_output(999)

    def test_fanins_of_non_and_rejected(self, xor_aig):
        with pytest.raises(AigError):
            xor_aig.fanins(0)


class TestAnalysis:
    def test_counts(self, xor_aig):
        assert xor_aig.num_inputs == 2
        assert xor_aig.num_outputs == 1
        assert xor_aig.num_ands == 3

    def test_levels_and_depth(self, xor_aig):
        assert xor_aig.depth() == 2
        levels = xor_aig.levels()
        assert levels[0] == 0
        assert all(levels[Aig.node(xor_aig.input_literal(k))] == 0 for k in range(2))

    def test_reference_counts(self, xor_aig):
        counts = xor_aig.reference_counts()
        output_node = Aig.node(xor_aig.outputs[0])
        assert counts[output_node] == 1

    def test_evaluate_word(self, xor_aig):
        assert [xor_aig.evaluate_word(w) for w in range(4)] == [0, 1, 1, 0]

    def test_to_bool_function(self, xor_aig):
        function = xor_aig.to_bool_function()
        assert function.num_inputs == 2
        assert function.lookup_table() == [0, 1, 1, 0]


class TestCompaction:
    def test_dead_nodes_removed(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        useful = aig.and_(a, b)
        aig.and_(a, Aig.negate(b))  # dangling
        aig.add_output(useful, "y")
        assert aig.num_ands == 2
        compacted = aig.compact()
        assert compacted.num_ands == 1
        assert compacted.num_live_ands() == 1
        assert compacted.output_tables() == aig.output_tables()

    def test_compact_preserves_names(self, xor_aig):
        compacted = xor_aig.compact()
        assert compacted.input_names == xor_aig.input_names
        assert compacted.output_names == xor_aig.output_names

    def test_repr(self, xor_aig):
        assert "ands=3" in repr(xor_aig)
