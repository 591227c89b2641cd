"""Differential test: packed Shannon construction and ``mffc_size`` against
the bodies they replaced.

``reference_build_table`` below is ``build_table`` as it ran on
:class:`TruthTable` objects: memo keyed by the table's bits, the complement
reused when it was built already, and a split on the highest variable the
table depends on, taking the cofactor pair again after the dependency test.
``build_table`` must add the same nodes in the same order and return the
same literal, so ``aig_from_tables`` and ``aig_from_netlist`` give the same
structure, input names and output names.  The generated functions have
constant, repeated and mutually complementary outputs (the complement memo
path) and outputs that skip variables at the top of the order.

``reference_mffc_size`` is ``mffc_size`` as it walked ``is_and_node`` and
``fanins``; the node-array walk must count the same cone for any root, cut
and reference counts.
"""

from __future__ import annotations

import copy
import random
from typing import Collection, Dict, List, Mapping, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, aig_from_netlist, aig_from_tables, build_table, mffc_size
from repro.aig.aig import FALSE_LIT, TRUE_LIT, negate, node_of
from repro.logic import TruthTable
from repro.netlist.netlist import CONST0_NET, CONST1_NET, Netlist
from repro.sboxes import des_sboxes, present_sbox
from repro.synth import synthesize
from repro.synth.script import _aig_structure_key

from test_compact_differential import aigs


def reference_aig_from_tables(
    tables: Sequence[TruthTable],
    input_names: Optional[Sequence[str]] = None,
    output_names: Optional[Sequence[str]] = None,
    name: str = "aig",
) -> Aig:
    aig = Aig(name)
    input_literals = [
        aig.add_input(input_names[k] if input_names else None)
        for k in range(tables[0].num_vars)
    ]
    memo: Dict[int, int] = {}
    for index, table in enumerate(tables):
        literal = reference_build_table(aig, table, input_literals, memo)
        aig.add_output(literal, output_names[index] if output_names else None)
    return aig


def reference_build_table(
    aig: Aig,
    table: TruthTable,
    input_literals: Sequence[int],
    memo: Optional[Dict[int, int]] = None,
) -> int:
    if memo is None:
        memo = {}
    return _shannon(aig, table, list(input_literals), memo)


def _shannon(
    aig: Aig,
    table: TruthTable,
    input_literals: List[int],
    memo: Dict[int, int],
) -> int:
    if table.is_constant_zero():
        return FALSE_LIT
    if table.is_constant_one():
        return TRUE_LIT
    cached = memo.get(table.bits)
    if cached is not None:
        return cached
    # Also reuse the complement when it has been built already.
    complement_bits = (~table).bits
    cached = memo.get(complement_bits)
    if cached is not None:
        literal = negate(cached)
        memo[table.bits] = literal
        return literal

    split = _choose_split(table)
    positive = table.cofactor(split, 1)
    negative = table.cofactor(split, 0)
    select = input_literals[split]

    if positive == negative:
        literal = _shannon(aig, positive, input_literals, memo)
        memo[table.bits] = literal
        return literal

    literal_pos = _shannon(aig, positive, input_literals, memo)
    literal_neg = _shannon(aig, negative, input_literals, memo)
    literal = aig.mux_(select, literal_pos, literal_neg)
    memo[table.bits] = literal
    return literal


def _choose_split(table: TruthTable) -> int:
    """Pick the highest-index variable in the support (a stable BDD-like order)."""
    for var in range(table.num_vars - 1, -1, -1):
        if table.depends_on(var):
            return var
    raise ValueError("constant tables are handled before splitting")


def reference_aig_from_netlist(netlist: Netlist, name: Optional[str] = None) -> Aig:
    aig = Aig(name or netlist.name)
    literals: Dict[str, int] = {CONST0_NET: FALSE_LIT, CONST1_NET: TRUE_LIT}
    for net in netlist.primary_inputs:
        literals[net] = aig.add_input(net)
    for instance in netlist.topological_order():
        cell = netlist.library[instance.cell]
        fanin_literals = [literals[net] for net in instance.inputs]
        literals[instance.output] = reference_build_table(
            aig, cell.function, fanin_literals, memo={}
        )
    for net in netlist.primary_outputs:
        aig.add_output(literals[net], net)
    return aig


def reference_mffc_size(
    aig: Aig, root: int, cut: Collection[int], reference_counts: Dict[int, int]
) -> int:
    # Remaining reference counts of the nodes the walk has dereferenced.
    remaining: Dict[int, int] = {}
    freed = 0
    stack = [root]
    first = True
    while stack:
        node = stack.pop()
        if node in cut and not first:
            continue
        if not aig.is_and_node(node):
            continue
        if not first and remaining.get(node, reference_counts.get(node, 0)) > 0:
            continue
        freed += 1
        first = False
        fanin0, fanin1 = aig.fanins(node)
        for fanin in (node_of(fanin0), node_of(fanin1)):
            if fanin in cut or not aig.is_and_node(fanin):
                continue
            count = remaining.get(fanin, reference_counts.get(fanin, 0)) - 1
            remaining[fanin] = count
            if count <= 0:
                stack.append(fanin)
    return freed


def _state(aig: Aig):
    return _aig_structure_key(aig), aig.name, aig.input_names, aig.output_names


def _nodes(aig: Aig):
    """Every node array and output: also right for AIGs with late inputs."""
    fanins0, fanins1, is_input = aig.node_arrays()
    return list(fanins0), list(fanins1), list(is_input), aig.outputs


def _without_vars(bits: int, num_vars: int, dropped: int) -> int:
    """``bits`` with every variable in the mask ``dropped`` cofactored away."""
    table = TruthTable(num_vars, bits)
    for var in range(num_vars):
        if (dropped >> var) & 1:
            table = table.cofactor(var, bits >> var & 1)
    return table.bits


@st.composite
def output_tables(draw):
    """1–4 output tables over 1–8 inputs: random, constant, a repeat or the
    complement of an earlier output, or random with variables dropped."""
    num_vars = draw(st.integers(1, 8))
    mask = (1 << (1 << num_vars)) - 1
    outputs: List[int] = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 4))
        if kind == 1:
            bits = draw(st.sampled_from([0, mask]))
        elif kind in (2, 3) and outputs:
            bits = draw(st.sampled_from(outputs)) ^ (mask if kind == 3 else 0)
        else:
            bits = draw(st.integers(0, mask))
            if kind == 4:
                bits = _without_vars(bits, num_vars, draw(st.integers(0, (1 << num_vars) - 1)))
        outputs.append(bits)
    return [TruthTable(num_vars, bits) for bits in outputs]


@given(output_tables(), st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_aig_from_tables_matches_reference(tables, named):
    num_vars = tables[0].num_vars
    input_names = [f"in{k}" for k in range(num_vars)] if named else None
    output_names = [f"out{k}" for k in range(len(tables))] if named else None
    built = aig_from_tables(tables, input_names, output_names, name="built")
    reference = reference_aig_from_tables(tables, input_names, output_names, name="built")
    assert _state(built) == _state(reference)
    assert built.output_tables() == tables


@given(aigs(), output_tables(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_build_table_into_an_aig_with_nodes(aig, tables, data):
    """Tables over literals of an AIG that already has nodes (inputs, AND
    nodes, complements, constants), one call per table with one memo."""
    candidates = [0, 1] + [
        (node << 1) | phase for node in range(1, aig.num_nodes) for phase in (0, 1)
    ]
    literals = data.draw(
        st.lists(
            st.sampled_from(candidates),
            min_size=tables[0].num_vars,
            max_size=tables[0].num_vars,
        )
    )
    reference = copy.deepcopy(aig)
    memo: Dict[int, int] = {}
    reference_memo: Dict[int, int] = {}
    for table in tables:
        literal = build_table(aig, table, literals, memo)
        assert literal == reference_build_table(reference, table, literals, reference_memo)
        assert _nodes(aig) == _nodes(reference)
    assert memo == reference_memo


def test_aig_from_netlist_matches_reference():
    for function in (present_sbox(), des_sboxes(1)[0]):
        for effort in ("fast", "standard"):
            netlist = synthesize(function, effort=effort).netlist
            built = aig_from_netlist(netlist)
            assert _state(built) == _state(reference_aig_from_netlist(netlist))
            assert built.output_tables() == list(function.outputs)


@st.composite
def shannon_aigs(draw):
    """The Shannon AIG of 1–3 seeded random tables over 3–6 inputs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    num_vars = draw(st.integers(3, 6))
    return aig_from_tables(
        [TruthTable(num_vars, rng.getrandbits(1 << num_vars)) for _ in range(rng.randint(1, 3))]
    )


@given(aigs() | shannon_aigs(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_mffc_size_matches_reference(aig, data):
    nodes = list(range(aig.num_nodes))
    true_counts = aig.reference_counts()
    # Two AND roots over cuts below them, then any node over any cut.
    for any_root in (False, False, True):
        if aig.num_ands and not any_root:
            root = data.draw(st.sampled_from(aig.and_nodes()))
            cut = data.draw(st.frozensets(st.sampled_from(nodes[:root]), max_size=4))
        else:
            root = data.draw(st.sampled_from(nodes))
            cut = data.draw(st.frozensets(st.sampled_from(nodes), max_size=6))
        if data.draw(st.booleans()):
            counts: Mapping[int, int] = true_counts
        else:
            counts = {node: data.draw(st.integers(0, 2)) for node in nodes}
        for leaves in (cut, tuple(sorted(cut))):
            assert mffc_size(aig, root, leaves, counts) == reference_mffc_size(
                aig, root, leaves, counts
            )
