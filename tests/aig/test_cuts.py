"""Unit tests for cut enumeration, cut functions, and MFFC computation."""

import random

import pytest

from repro.aig import (
    Aig,
    aig_from_function,
    collect_cone_cut,
    cut_function,
    enumerate_cuts,
    mffc_size,
)
from repro.logic import BoolFunction, TruthTable
from repro.sboxes import present_sbox


@pytest.fixture
def chain_aig():
    """y = ((a & b) & c) & d — a pure AND chain."""
    aig = Aig("chain")
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    d = aig.add_input("d")
    ab = aig.and_(a, b)
    abc = aig.and_(ab, c)
    abcd = aig.and_(abc, d)
    aig.add_output(abcd, "y")
    return aig


class TestEnumerateCuts:
    def test_trivial_cut_always_first(self, chain_aig):
        cuts = enumerate_cuts(chain_aig)
        for node in chain_aig.and_nodes():
            assert cuts[node][0] == frozenset({node})

    def test_leaf_limit_respected(self, chain_aig):
        cuts = enumerate_cuts(chain_aig, max_leaves=3)
        for node, node_cuts in cuts.items():
            for cut in node_cuts:
                assert len(cut) <= 3 or cut == frozenset({node})

    def test_root_has_full_input_cut(self, chain_aig):
        cuts = enumerate_cuts(chain_aig, max_leaves=4)
        root = chain_aig.and_nodes()[-1]
        input_nodes = frozenset(
            Aig.node(chain_aig.input_literal(k)) for k in range(4)
        )
        assert input_nodes in cuts[root]

    def test_max_cuts_per_node(self, chain_aig):
        cuts = enumerate_cuts(chain_aig, max_cuts_per_node=2)
        for node_cuts in cuts.values():
            assert len(node_cuts) <= 2


class TestCutFunction:
    def test_function_over_inputs(self, chain_aig):
        root = chain_aig.and_nodes()[-1]
        input_nodes = frozenset(
            Aig.node(chain_aig.input_literal(k)) for k in range(4)
        )
        table, leaves = cut_function(chain_aig, root, input_nodes)
        assert len(leaves) == 4
        expected = TruthTable.constant(4, True)
        for var in range(4):
            expected = expected & TruthTable.variable(var, 4)
        assert table == expected

    def test_function_over_intermediate_cut(self, chain_aig):
        nodes = chain_aig.and_nodes()
        ab_node, abc_node, root = nodes
        d_node = Aig.node(chain_aig.input_literal(3))
        table, leaves = cut_function(chain_aig, root, frozenset({abc_node, d_node}))
        assert table == TruthTable.variable(0, 2) & TruthTable.variable(1, 2)

    def test_leaf_outside_cone_rejected(self, chain_aig):
        root = chain_aig.and_nodes()[-1]
        with pytest.raises(ValueError):
            cut_function(chain_aig, root, frozenset({Aig.node(chain_aig.input_literal(0))}))

    def test_trivial_cut_returns_projection(self):
        aig = aig_from_function(present_sbox()).compact()
        node = aig.and_nodes()[0]
        table, leaves = cut_function(aig, node, frozenset({node}))
        assert leaves == [node]
        assert table.num_vars == 1
        assert table.bits == 0b10


def _random_aig(seed):
    """The strashed AIG of a seeded random function of 3-6 inputs."""
    rng = random.Random(seed)
    num_inputs = 3 + seed % 4
    outputs = [
        TruthTable(num_inputs, rng.getrandbits(1 << num_inputs))
        for _ in range(1 + seed % 3)
    ]
    return aig_from_function(BoolFunction(outputs, name=f"random{seed}")).compact()


def _reference_cut_function(aig, root, leaves):
    """Simulate the cone of ``root`` with TruthTable objects, leaves free."""
    tables = {
        leaf: TruthTable.variable(index, len(leaves)) for index, leaf in enumerate(leaves)
    }

    def literal_table(literal):
        node = Aig.node(literal)
        if node not in tables:
            fanin0, fanin1 = aig.fanins(node)
            tables[node] = literal_table(fanin0) & literal_table(fanin1)
        return ~tables[node] if Aig.is_negated(literal) else tables[node]

    return literal_table(Aig.lit(root))


class TestCutFunctionReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_enumerated_and_refactor_cut(self, seed):
        aig = _random_aig(seed)
        cuts = {node: list(node_cuts) for node, node_cuts in enumerate_cuts(aig).items()}
        for node in aig.and_nodes():
            cuts[node].append(collect_cone_cut(aig, node, max_leaves=8))
        for node, node_cuts in cuts.items():
            for cut in node_cuts:
                table, leaves = cut_function(aig, node, cut)
                assert leaves == sorted(cut)
                assert table == _reference_cut_function(aig, node, leaves)


class TestMffc:
    def test_chain_mffc_is_whole_cone(self, chain_aig):
        root = chain_aig.and_nodes()[-1]
        input_nodes = frozenset(Aig.node(chain_aig.input_literal(k)) for k in range(4))
        refs = chain_aig.reference_counts()
        assert mffc_size(chain_aig, root, input_nodes, refs) == 3

    def test_shared_node_excluded_from_mffc(self):
        aig = Aig()
        a = aig.add_input()
        b = aig.add_input()
        c = aig.add_input()
        shared = aig.and_(a, b)
        root = aig.and_(shared, c)
        aig.add_output(root, "y")
        aig.add_output(shared, "z")  # shared has an external reference
        refs = aig.reference_counts()
        leaves = frozenset({Aig.node(a), Aig.node(b), Aig.node(c)})
        assert mffc_size(aig, Aig.node(root), leaves, refs) == 1

    def test_reference_counts_not_mutated(self, chain_aig):
        root = chain_aig.and_nodes()[-1]
        refs = chain_aig.reference_counts()
        snapshot = dict(refs)
        leaves = frozenset(Aig.node(chain_aig.input_literal(k)) for k in range(4))
        mffc_size(chain_aig, root, leaves, refs)
        assert refs == snapshot


class TestConeCut:
    def test_cone_cut_bounded(self, chain_aig):
        root = chain_aig.and_nodes()[-1]
        cut = collect_cone_cut(chain_aig, root, max_leaves=4)
        assert len(cut) <= 4
        # With 4 leaves allowed the cone reaches the primary inputs.
        assert all(not chain_aig.is_and_node(leaf) for leaf in cut)

    def test_cone_cut_small_budget(self, chain_aig):
        root = chain_aig.and_nodes()[-1]
        cut = collect_cone_cut(chain_aig, root, max_leaves=2)
        assert len(cut) <= 2
