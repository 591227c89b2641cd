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
from ..aig.aig import Aig

__all__ = ["map_to_cells", "MappingError"]

_MAX_SIMPLE_GATE_INPUTS = 4


class MappingError(Exception):
    """Raised when the AIG cannot be mapped onto the library."""


def map_to_cells(
    aig: Aig,
    library: Optional[CellLibrary] = None,
    name: Optional[str] = None,
) -> Netlist:
    """Map an AIG onto simple gates, returning a netlist.

    The AIG is mapped as :meth:`Aig.compact` leaves it, so logic that no
    output reaches costs no area.  An AIG that compaction would not change
    (``optimize_aig``'s result, which ``synthesize`` maps) is mapped
    without a copy.
    """
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


def _is_compact(aig: Aig, reference: Dict[int, int]) -> bool:
    """Whether ``aig.compact()`` would copy ``aig`` node for node.

    It would when every input precedes every AND node and every AND node
    has a fanout (``reference`` holds the fanout counts): the
    highest-numbered dead AND node, if there is one, has none.
    """
    _, _, is_input = aig.node_arrays()
    first_and = aig.num_inputs + 1
    return all(is_input[1:first_and]) and all(
        reference[node] for node in range(first_and, len(is_input))
    )


class _TreeMapper:
    """Implements the tree-by-tree covering."""

    def __init__(self, aig: Aig, library: CellLibrary, name: str):
        self._reference = aig.reference_counts()
        if not _is_compact(aig, self._reference):
            aig = aig.compact()
            self._reference = aig.reference_counts()
        self._aig = aig
        self._netlist = Netlist(name, library)
        self._inv_area = library["INV"].area
        # The direct covers of each gate width, as (cell, area): AND and NOR
        # give a positive literal, NAND and OR a complemented one.
        self._gates = [
            tuple(
                (cell, library[cell].area)
                for cell in (f"AND{width}", f"NOR{width}", f"NAND{width}", f"OR{width}")
            )
            for width in range(2, _MAX_SIMPLE_GATE_INPUTS + 1)
        ]
        fanins0, _, is_input = self._aig.node_arrays()
        # Whether each node is a single-fanout AND node, which lies inside the
        # tree of whichever root reaches it.
        self._internal = [
            bool(node) and not is_input[node] and self._reference[node] <= 1
            for node in range(len(fanins0))
        ]
        # Net carrying each literal, once emitted.
        self._nets: List[Optional[str]] = [None] * (2 * len(fanins0))
        # The cheapest direct gate cover of each literal of an AND node: its
        # cost, and the cover as (cell, leaves).
        self._cover_costs, self._covers = self._choose_covers()

    # -------------------------------------------------------------- #
    # Public entry point
    # -------------------------------------------------------------- #
    def run(self) -> Netlist:
        aig = self._aig
        for index, net in enumerate(aig.input_names):
            self._netlist.add_input(net)
            self._nets[aig.input_literal(index)] = net

        # Roots: multi-fanout AND nodes and output nodes, in topological order.
        _, _, is_input = aig.node_arrays()
        output_nodes = {literal >> 1 for literal in aig.outputs}
        for root in range(1, len(is_input)):
            if not is_input[root] and (self._reference[root] > 1 or root in output_nodes):
                self._emit_literal(root << 1, root)

        self._connect_outputs()
        return self._netlist

    # -------------------------------------------------------------- #
    # DP cost model
    # -------------------------------------------------------------- #
    def _choose_covers(self) -> Tuple[List[float], List[Optional[Tuple[str, List[int]]]]]:
        """The cheapest direct gate cover of both literals of every AND node.

        A node's covers flatten the AND tree under its positive literal
        greedily: each step expands the first non-complemented leaf that lies
        inside the tree into its two fanins, so step ``k`` has ``k + 2``
        leaves and is the cover of a ``k + 2``-input AND or NAND.  The OR tree
        under the complemented literal has the same steps with every leaf
        complemented, the covers of NOR and OR.  Covers are tried by width,
        AND then NOR for the positive literal and NAND then OR for the
        complemented one; the first of equally cheap covers wins.

        Nodes are costed in topological order, so each leaf inside a tree
        already has its DP cost: the cheaper of its direct cover and an
        inverter on the other literal's.  A tree input costs nothing, or an
        inverter when complemented.
        """
        fanins0, fanins1, is_input = self._aig.node_arrays()
        internal = self._internal
        inv_area = self._inv_area
        leaf_costs = [0.0, inv_area] * len(fanins0)
        cover_costs = [0.0] * len(leaf_costs)
        covers: List[Optional[Tuple[str, List[int]]]] = [None] * len(leaf_costs)
        for node in range(1, len(fanins0)):
            if is_input[node]:
                continue
            leaves = [fanins0[node], fanins1[node]]
            steps = [leaves]
            while len(leaves) < _MAX_SIMPLE_GATE_INPUTS:
                for index, leaf in enumerate(leaves):
                    if not leaf & 1 and internal[leaf >> 1]:
                        fanins = [fanins0[leaf >> 1], fanins1[leaf >> 1]]
                        leaves = leaves[:index] + fanins + leaves[index + 1:]
                        steps.append(leaves)
                        break
                else:
                    break
            positive = negative = (float("inf"), "", [])
            for leaves, (and_gate, nor_gate, nand_gate, or_gate) in zip(steps, self._gates):
                direct = sum([leaf_costs[leaf] for leaf in leaves])
                inverted = sum([leaf_costs[leaf ^ 1] for leaf in leaves])
                cost = and_gate[1] + direct
                if cost < positive[0]:
                    positive = (cost, and_gate[0], leaves)
                cost = nor_gate[1] + inverted
                if cost < positive[0]:
                    positive = (cost, nor_gate[0], [leaf ^ 1 for leaf in leaves])
                cost = nand_gate[1] + direct
                if cost < negative[0]:
                    negative = (cost, nand_gate[0], leaves)
                cost = or_gate[1] + inverted
                if cost < negative[0]:
                    negative = (cost, or_gate[0], [leaf ^ 1 for leaf in leaves])
            literal = node << 1
            cover_costs[literal], cover_costs[literal | 1] = positive[0], negative[0]
            covers[literal], covers[literal | 1] = positive[1:], negative[1:]
            if internal[node]:
                leaf_costs[literal] = min(positive[0], negative[0] + inv_area)
                leaf_costs[literal | 1] = min(negative[0], positive[0] + inv_area)
        return cover_costs, covers

    # -------------------------------------------------------------- #
    # Netlist emission
    # -------------------------------------------------------------- #
    def _emit_literal(self, literal: int, root: int) -> str:
        """Emit cells to produce the signal of ``literal``; return its net."""
        nets = self._nets
        net = nets[literal]
        if net is not None:
            return net
        node = literal >> 1
        if node != root and not self._internal[node]:
            # Tree input: positive net must exist already (PIs seeded, other
            # roots emitted earlier in topological order).
            positive = nets[literal & ~1]
            if positive is None:
                if node:
                    raise MappingError(f"tree input node {node} has no mapped net")
                positive = nets[0] = CONST0_NET
                nets[1] = CONST1_NET
            if not literal & 1:
                return positive
            net = self._netlist.add_instance("INV", [positive]).output
        elif self._cover_costs[literal] <= self._cover_costs[literal ^ 1] + self._inv_area:
            cell, leaves = self._covers[literal]
            input_nets = [self._emit_literal(leaf, root) for leaf in leaves]
            net = self._netlist.add_instance(cell, input_nets).output
        else:
            source = self._emit_literal(literal ^ 1, root)
            net = self._netlist.add_instance("INV", [source]).output
        nets[literal] = net
        return net

    def _connect_outputs(self) -> None:
        aig = self._aig
        netlist = self._netlist
        # Every net name of the netlist, kept in step with it below.
        names = set(netlist.nets())
        used_names: Dict[str, int] = {}
        for literal, requested in zip(aig.outputs, aig.output_names):
            # Pick an output name that collides with no existing net or output.
            name = requested
            while name in names:
                used_names[requested] = used_names.get(requested, 0) + 1
                name = f"{requested}_{used_names[requested]}"
            net = self._output_source_net(literal)
            names.add(net)
            can_rename = (
                net != name
                and name not in names
                and net not in netlist.primary_inputs
                and net not in netlist.primary_outputs
                and net not in (CONST0_NET, CONST1_NET)
                and netlist.driver_of(net) is not None
            )
            if net == name:
                netlist.add_output(name)
            elif can_rename:
                netlist.rename_net(net, name)
                # No other literal's entry holds the renamed net.
                self._nets[literal] = name
                names.discard(net)
                netlist.add_output(name)
            else:
                netlist.add_output(name)
                netlist.add_instance("BUF", [net], output=name)
            names.add(name)

    def _output_source_net(self, literal: int) -> str:
        if literal >> 1 == 0:
            return CONST1_NET if literal & 1 else CONST0_NET
        net = self._nets[literal]
        if net is None:
            # Only the positive phase was emitted; add an inverter.
            net = self._netlist.add_instance("INV", [self._nets[literal & ~1]]).output
            self._nets[literal] = net
        return net
