"""Area-oriented technology mapping of an AIG onto the standard-cell library.

The mapper covers the AIG with the simple-gate families the paper's ABC
script uses (INV/BUF and 2- to 4-input NAND/NOR/AND/OR).  It works tree by
tree: multi-fanout nodes and primary outputs are tree roots; inside a tree a
dynamic programme chooses, for each required signal polarity, between an
AND/NAND cover of the node's AND-tree leaves, an OR/NOR cover of its OR-tree
leaves, or an inverter on the opposite polarity.

The result is a :class:`~repro.netlist.netlist.Netlist` whose
:meth:`~repro.netlist.netlist.Netlist.area` is the gate-equivalent area the
genetic algorithm uses as its fitness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..netlist.library import CellLibrary, standard_cell_library
from ..netlist.netlist import CONST0_NET, CONST1_NET, Netlist
from ..aig.aig import Aig, is_complemented, negate, node_of

__all__ = ["map_to_cells", "MappingError"]

_MAX_SIMPLE_GATE_INPUTS = 4


class MappingError(Exception):
    """Raised when the AIG cannot be mapped onto the library."""


def map_to_cells(
    aig: Aig,
    library: Optional[CellLibrary] = None,
    name: Optional[str] = None,
) -> Netlist:
    """Map an AIG onto simple gates, returning a netlist."""
    library = library or standard_cell_library()
    _require_cells(library)
    mapper = _TreeMapper(aig, library, name or aig.name)
    return mapper.run()


def _require_cells(library: CellLibrary) -> None:
    required = ["INV", "BUF"]
    for width in range(2, _MAX_SIMPLE_GATE_INPUTS + 1):
        required += [f"NAND{width}", f"NOR{width}", f"AND{width}", f"OR{width}"]
    missing = [cell for cell in required if cell not in library]
    if missing:
        raise MappingError(f"library is missing required cells: {missing}")


class _TreeMapper:
    """Implements the tree-by-tree covering."""

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
