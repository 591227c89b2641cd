"""Differential test: ``map_to_cells`` against the mapper that ran on dicts.

``ReferenceTreeMapper`` below is the tree-by-tree covering as it was before
the cover DP moved onto the AIG's node arrays: per-node dicts of fanins and
tree membership, the leaf lists of every cover rebuilt per literal, cell
names formatted per candidate, and an output pass that listed every net of
the netlist three times per output.  ``map_to_cells`` must give the same
primary inputs and outputs, the same area and the same instances (name,
cell, inputs, output) in the same order.

The generated AIGs come from random tables of 3-6 inputs and 1-4 outputs,
raw, balanced or rewritten, with output names drawn from a pool that
collides with input names, fresh net names and each other.  Fixed AIGs
reach each branch of the output pass: an output renamed onto an internal
net, a requested name equal to a fresh net name or to one a rename has
freed, repeated names, outputs on a primary input in either phase, constant
outputs, and two outputs on one node in both phases.  One more has a node
whose second fanout is dead, which only the mapper's compaction removes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, aig_from_tables, balance, rewrite
from repro.aig.aig import is_complemented, negate, node_of
from repro.logic import TruthTable
from repro.netlist.library import CellLibrary, standard_cell_library
from repro.netlist.netlist import CONST0_NET, CONST1_NET, Netlist
from repro.synth import map_to_cells
from repro.synth.mapper import MappingError

_MAX_SIMPLE_GATE_INPUTS = 4


def reference_map_to_cells(aig: Aig) -> Netlist:
    return ReferenceTreeMapper(aig, standard_cell_library(), aig.name).run()


class ReferenceTreeMapper:
    """The tree-by-tree covering before it ran on node arrays."""

    def __init__(self, aig: Aig, library: CellLibrary, name: str):
        self._aig = aig.compact()
        self._library = library
        self._netlist = Netlist(name, library)
        self._reference = self._aig.reference_counts()
        # Fanin literals of every AND node, and whether it is single-fanout
        # (so it lies inside the tree of whichever root reaches it).
        self._fanins: Dict[int, Tuple[int, int]] = {
            node: self._aig.fanins(node) for node in self._aig.and_nodes()
        }
        self._tree_internal = {
            node: self._reference.get(node, 0) <= 1 for node in self._fanins
        }
        self._inv_area = library["INV"].area
        # Net carrying each (node, phase); phase True = non-complemented.
        self._nets: Dict[Tuple[int, bool], str] = {}
        # Memoised DP cost of producing (literal) inside the current tree.
        self._cost_cache: Dict[int, float] = {}
        # Memoised best direct cover (cost, cell, leaves) of (literal) inside
        # the current tree.
        self._cover_cache: Dict[int, Tuple[float, str, List[int]]] = {}
        self._roots: List[int] = []

    # -------------------------------------------------------------- #
    # Public entry point
    # -------------------------------------------------------------- #
    def run(self) -> Netlist:
        aig = self._aig
        for index in range(aig.num_inputs):
            net = aig.input_names[index]
            self._netlist.add_input(net)
            self._nets[(node_of(aig.input_literal(index)), True)] = net

        self._roots = self._find_roots()
        for root in self._roots:
            if aig.is_and_node(root):
                self._emit_root(root)

        self._connect_outputs()
        return self._netlist

    # -------------------------------------------------------------- #
    # Tree decomposition
    # -------------------------------------------------------------- #
    def _find_roots(self) -> List[int]:
        """Multi-fanout AND nodes and output nodes, in topological order."""
        aig = self._aig
        output_nodes = {node_of(lit) for lit in aig.outputs}
        roots = []
        for node in aig.and_nodes():
            if self._reference.get(node, 0) > 1 or node in output_nodes:
                roots.append(node)
        return roots

    def _in_tree(self, node: int, root: int) -> bool:
        """True if ``node`` is an AND node of the tree hanging below ``root``."""
        return node == root or self._tree_internal.get(node, False)

    # -------------------------------------------------------------- #
    # DP cost model
    # -------------------------------------------------------------- #
    def _leaf_lists(self, literal: int, root: int, or_tree: bool) -> List[List[int]]:
        """Greedily flatten the AND (or OR) tree under ``literal``.

        Each step expands the first expandable leaf into its two fanins and
        the result lists the leaves after every step, so entry ``k`` has
        ``k + 2`` leaves and is the cover of a ``k + 2``-input gate.  The AND
        tree expands non-complemented leaves; the OR tree reads ``literal``
        as an OR and expands complemented leaves into complemented fanins.
        """
        leaves = [literal]
        steps: List[List[int]] = []
        while len(leaves) < _MAX_SIMPLE_GATE_INPUTS:
            for index, leaf in enumerate(leaves):
                if is_complemented(leaf) != or_tree or not self._in_tree(node_of(leaf), root):
                    continue
                fanin0, fanin1 = self._fanins[node_of(leaf)]
                if or_tree:
                    fanin0, fanin1 = negate(fanin0), negate(fanin1)
                leaves = leaves[:index] + [fanin0, fanin1] + leaves[index + 1:]
                steps.append(leaves)
                break
            else:
                break
        return steps

    def _best_cover(self, literal: int, root: int) -> Tuple[float, str, List[int]]:
        """The cheapest direct gate cover ``(cost, cell, leaves)`` of ``literal``.

        ``literal`` must lie inside the tree of ``root``.  Covers are tried
        by width: AND then NOR for a positive literal, NAND then OR for a
        complemented one; the first of equally cheap covers wins.
        """
        cached = self._cover_cache.get(literal)
        if cached is not None:
            return cached
        if is_complemented(literal):
            families = (
                ("NAND", self._leaf_lists(negate(literal), root, False)),
                ("OR", self._leaf_lists(literal, root, True)),
            )
        else:
            families = (
                ("AND", self._leaf_lists(literal, root, False)),
                ("NOR", self._leaf_lists(negate(literal), root, True)),
            )
        best: Tuple[float, str, List[int]] = (float("inf"), "", [])
        for step in range(_MAX_SIMPLE_GATE_INPUTS - 1):
            for gate, steps in families:
                if step >= len(steps):
                    continue
                leaves = steps[step]
                cell = f"{gate}{len(leaves)}"
                cost = self._library[cell].area + sum(
                    self._leaf_cost(leaf, root) for leaf in leaves
                )
                if cost < best[0]:
                    best = (cost, cell, leaves)
        self._cover_cache[literal] = best
        return best

    def _leaf_cost(self, literal: int, root: int) -> float:
        """Cost of obtaining the signal of ``literal`` (recursive DP)."""
        if not self._in_tree(node_of(literal), root):
            # Tree input: the positive phase already exists (PI or other root).
            return self._inv_area if is_complemented(literal) else 0.0
        return self._signal_cost(literal, root)

    def _signal_cost(self, literal: int, root: int) -> float:
        cached = self._cost_cache.get(literal)
        if cached is not None:
            return cached
        # Temporarily seed with infinity to break pathological cycles (none
        # should exist in a DAG, but the guard keeps recursion safe).
        self._cost_cache[literal] = float("inf")
        structural = self._structural_cost(literal, root)
        opposite = self._structural_cost(negate(literal), root)
        cost = min(structural, opposite + self._inv_area)
        self._cost_cache[literal] = cost
        self._cost_cache.setdefault(negate(literal), min(opposite, structural + self._inv_area))
        return cost

    def _structural_cost(self, literal: int, root: int) -> float:
        """Cost of the best direct gate cover for ``literal`` (no leading INV)."""
        if not self._in_tree(node_of(literal), root):
            return self._inv_area if is_complemented(literal) else 0.0
        return self._best_cover(literal, root)[0]

    # -------------------------------------------------------------- #
    # Netlist emission
    # -------------------------------------------------------------- #
    def _emit_root(self, root: int) -> None:
        self._cost_cache = {}
        self._cover_cache = {}
        self._emit_literal(Aig.lit(root), root)

    def _emit_literal(self, literal: int, root: int) -> str:
        """Emit cells to produce the signal of ``literal``; return its net."""
        node = node_of(literal)
        phase = not is_complemented(literal)
        existing = self._nets.get((node, phase))
        if existing is not None:
            return existing

        if not self._in_tree(node, root):
            # Tree input: positive net must exist already (PIs seeded, other
            # roots emitted earlier in topological order).
            positive = self._nets.get((node, True))
            if positive is None:
                if node == 0:
                    positive = CONST0_NET
                    self._nets[(0, True)] = CONST0_NET
                    self._nets[(0, False)] = CONST1_NET
                else:
                    raise MappingError(f"tree input node {node} has no mapped net")
            if phase:
                return positive
            net = self._netlist.add_instance("INV", [positive]).output
            self._nets[(node, False)] = net
            return net

        structural = self._structural_cost(literal, root)
        opposite = self._structural_cost(negate(literal), root)
        if structural <= opposite + self._inv_area:
            _, cell, leaves = self._best_cover(literal, root)
            if not cell:
                raise MappingError(f"no gate cover found for literal {literal}")
            input_nets = [self._emit_literal(leaf, root) for leaf in leaves]
            net = self._netlist.add_instance(cell, input_nets).output
        else:
            source = self._emit_literal(negate(literal), root)
            net = self._netlist.add_instance("INV", [source]).output
        self._nets[(node, phase)] = net
        return net

    def _connect_outputs(self) -> None:
        aig = self._aig
        used_names: Dict[str, int] = {}
        for literal, requested in zip(aig.outputs, aig.output_names):
            name = self._unique_output_name(requested, used_names)
            net = self._output_source_net(literal)
            can_rename = (
                net != name
                and name not in self._netlist.nets()
                and net not in self._netlist.primary_inputs
                and net not in self._netlist.primary_outputs
                and net not in (CONST0_NET, CONST1_NET)
                and self._netlist.driver_of(net) is not None
            )
            if net == name:
                self._netlist.add_output(name)
            elif can_rename:
                self._netlist.rename_net(net, name)
                self._rename_cached_net(net, name)
                self._netlist.add_output(name)
            else:
                self._netlist.add_output(name)
                self._netlist.add_instance("BUF", [net], output=name)

    def _output_source_net(self, literal: int) -> str:
        node = node_of(literal)
        aig = self._aig
        if node == 0:
            return CONST1_NET if is_complemented(literal) else CONST0_NET
        if aig.is_and_node(node):
            net = self._nets.get((node, not is_complemented(literal)))
            if net is None:
                # The root was emitted in positive phase; add an inverter.
                positive = self._nets[(node, True)]
                net = self._netlist.add_instance("INV", [positive]).output
                self._nets[(node, False)] = net
            return net
        # Primary input.
        positive = self._nets[(node, True)]
        if not is_complemented(literal):
            return positive
        cached = self._nets.get((node, False))
        if cached is not None:
            return cached
        net = self._netlist.add_instance("INV", [positive]).output
        self._nets[(node, False)] = net
        return net

    def _unique_output_name(self, requested: str, used: Dict[str, int]) -> str:
        """Pick an output name that collides with no existing net or output."""
        existing = set(self._netlist.nets()) | set(self._netlist.primary_outputs)
        name = requested
        while name in existing:
            used[requested] = used.get(requested, 0) + 1
            name = f"{requested}_{used[requested]}"
        return name

    def _rename_cached_net(self, old: str, new: str) -> None:
        for key, net in list(self._nets.items()):
            if net == old:
                self._nets[key] = new


def _netlist_state(netlist: Netlist):
    return (
        netlist.primary_inputs,
        netlist.primary_outputs,
        netlist.area(),
        [
            (instance.name, instance.cell, list(instance.inputs), instance.output)
            for instance in netlist.instances
        ],
    )


def assert_maps_like_reference(aig: Aig) -> None:
    assert _netlist_state(map_to_cells(aig)) == _netlist_state(reference_map_to_cells(aig))


#: Output names that collide with the inputs ``i0``/``i1``, with the fresh
#: nets ``n1``, ``n2`` and ``n5`` of the mapper, and with each other.
OUTPUT_NAMES = ["y", "y", "n1", "n2", "n5", "i0", "i1", "o0"]


@st.composite
def aigs(draw):
    num_inputs = draw(st.integers(min_value=3, max_value=6))
    num_outputs = draw(st.integers(min_value=1, max_value=4))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    tables = [TruthTable(num_inputs, rng.getrandbits(1 << num_inputs)) for _ in range(num_outputs)]
    names = None
    if draw(st.booleans()):
        names = draw(
            st.lists(st.sampled_from(OUTPUT_NAMES), min_size=num_outputs, max_size=num_outputs)
        )
    aig = aig_from_tables(tables, output_names=names)
    optimisation = draw(st.sampled_from(["none", "balance", "balance+rewrite"]))
    if optimisation != "none":
        aig = balance(aig)
    if optimisation == "balance+rewrite":
        aig = rewrite(aig)
    return aig


@given(aigs())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_map_to_cells_matches_reference(aig):
    assert_maps_like_reference(aig)


def _two_input_and() -> Tuple[Aig, int, int, int]:
    aig = Aig("fixed")
    a = aig.add_input("a")
    b = aig.add_input("b")
    return aig, a, b, aig.and_(a, b)


def _output_on_internal_net() -> Aig:
    aig, a, b, x = _two_input_and()
    aig.add_output(aig.or_(x, aig.add_input("c")), "y")
    return aig


def _fresh_net_name_requested() -> Aig:
    # No instance exists when the output pass starts, so the inverter it adds
    # gets the fresh net n1, the very name the output asks for.
    aig = Aig("fixed")
    a = aig.add_input("a")
    aig.add_output(negate(a), "n1")
    return aig


def _fresh_net_name_taken() -> Aig:
    aig, a, b, x = _two_input_and()
    aig.add_output(x, "n1")
    aig.add_output(negate(x), "n2")
    return aig


def _renamed_away_name_requested() -> Aig:
    # The first output renames net n1 to y, which frees the name n1 for the
    # second output.
    aig, a, b, x = _two_input_and()
    aig.add_output(x, "y")
    aig.add_output(negate(x), "n1")
    return aig


def _repeated_names() -> Aig:
    aig, a, b, x = _two_input_and()
    aig.add_output(x, "y")
    aig.add_output(aig.or_(a, b), "y")
    aig.add_output(aig.xor_(a, b), "y")
    aig.add_output(a, "y")
    return aig


def _outputs_on_an_input() -> Aig:
    aig, a, b, x = _two_input_and()
    aig.add_output(a, "pa")
    aig.add_output(negate(a), "na")
    aig.add_output(negate(a), "na2")
    aig.add_output(b, "b")
    aig.add_output(x, "a")
    return aig


def _constant_outputs() -> Aig:
    aig, a, b, x = _two_input_and()
    aig.add_output(0, "zero")
    aig.add_output(1, "one")
    aig.add_output(0, "zero")
    aig.add_output(x, "x")
    return aig


def _one_node_both_phases() -> Aig:
    aig, a, b, x = _two_input_and()
    y = aig.and_(x, aig.add_input("c"))
    aig.add_output(y, "p")
    aig.add_output(negate(y), "n")
    aig.add_output(y, "p2")
    aig.add_output(negate(x), "nx")
    aig.add_output(x, "px")
    return aig


def _dead_fanout() -> Aig:
    # x feeds a dead node too; the mapper's compaction leaves it one fanout,
    # so x lies inside the output's tree instead of being a root.
    aig, a, b, x = _two_input_and()
    c = aig.add_input("c")
    aig.and_(x, negate(c))
    aig.add_output(aig.and_(x, c), "y")
    return aig


FIXED_AIGS = {
    "renamed_onto_internal_net": _output_on_internal_net,
    "fresh_net_name_requested": _fresh_net_name_requested,
    "fresh_net_name_taken": _fresh_net_name_taken,
    "renamed_away_name_requested": _renamed_away_name_requested,
    "repeated_names": _repeated_names,
    "outputs_on_an_input": _outputs_on_an_input,
    "constant_outputs": _constant_outputs,
    "one_node_both_phases": _one_node_both_phases,
    "dead_fanout": _dead_fanout,
}


@pytest.mark.parametrize("case", sorted(FIXED_AIGS))
def test_output_pass_matches_reference(case):
    assert_maps_like_reference(FIXED_AIGS[case]())


def test_fresh_net_name_is_kept_when_requested():
    netlist = map_to_cells(_fresh_net_name_requested())
    assert netlist.primary_outputs == ["n1"]
    assert [(instance.cell, instance.output) for instance in netlist.instances] == [("INV", "n1")]
