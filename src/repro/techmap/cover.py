"""Dynamic-programming tree covering with camouflaged cells (Alg. 1).

For every net of a fanout-free tree the cover considers all subtrees of
bounded depth rooted at that net, abstracts the select signals appearing in
the subtree (ABSFUNC), asks the camouflage library for the cheapest cell
whose plausible functions contain every required function, and keeps the
minimum-cost cover.  The chosen covers are then stitched together from the
tree root downwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..camo.library import CamouflageLibrary, CellMatch
from ..logic.truthtable import TruthTable
from ..netlist.netlist import Instance, Netlist
from .absfunc import AbstractedFunctions, abstract_select_functions
from .trees import Tree

__all__ = ["CoveredCell", "TreeCover", "CoverError", "cover_tree"]


class CoverError(Exception):
    """Raised when a tree cannot be covered with the camouflage library."""


@dataclass
class CoveredCell:
    """One camouflaged cell instance chosen by the cover."""

    output_net: str
    cell_name: str
    pin_nets: Tuple[str, ...]
    data_leaves: Tuple[str, ...]
    select_leaves: Tuple[str, ...]
    #: Configured function (over the cell pins) for every assignment of the
    #: local select leaves.
    config_by_select: Dict[Tuple[int, ...], TruthTable]
    area: float

    def nominal_config(self) -> TruthTable:
        """The configuration for the all-zero select assignment."""
        zero = tuple(0 for _ in self.select_leaves)
        return self.config_by_select[zero]


@dataclass
class TreeCover:
    """The cover of one tree."""

    tree: Tree
    cells: List[CoveredCell] = field(default_factory=list)
    cost: float = 0.0


@dataclass
class _Choice:
    """Best DP entry for one in-tree net."""

    cost: float
    instances: Tuple[Instance, ...]
    abstracted: AbstractedFunctions
    match: CellMatch


def cover_tree(
    netlist: Netlist,
    tree: Tree,
    select_nets: Sequence[str],
    library: CamouflageLibrary,
    max_depth: int = 2,
    max_candidates_per_node: int = 64,
    padding_net: Optional[str] = None,
) -> TreeCover:
    """Cover one fanout-free tree with camouflaged cells (Alg. 1)."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    select_set = set(select_nets)
    in_tree: Dict[str, Instance] = {inst.output: inst for inst in tree.instances}
    max_pins = library.max_pins()
    best: Dict[str, _Choice] = {}

    for instance in tree.instances:
        choices: List[_Choice] = []
        for subtree in _enumerate_subtrees(instance, in_tree, max_depth):
            if len(choices) >= max_candidates_per_node:
                break
            leaf_nets = _subtree_leaves(subtree)
            data_count = sum(1 for net in leaf_nets if net not in select_set)
            if data_count > max_pins:
                continue
            abstracted = abstract_select_functions(
                netlist, subtree, instance.output, leaf_nets, select_nets
            )
            required = abstracted.required_functions()
            match = library.best_match(required)
            if match is None:
                continue
            leaf_cost = 0.0
            for net in abstracted.data_leaves:
                if net in best:
                    leaf_cost += best[net].cost
                elif net in in_tree:
                    # A data leaf driven inside the tree but not yet covered
                    # cannot happen with topologically ordered instances.
                    raise CoverError(
                        f"internal error: leaf {net!r} has no cover yet"
                    )
            choices.append(
                _Choice(
                    cost=match.cost + leaf_cost,
                    instances=subtree,
                    abstracted=abstracted,
                    match=match,
                )
            )
        if not choices:
            raise CoverError(
                f"no camouflaged cell covers instance {instance.name!r} "
                f"({instance.cell}); the library is too small"
            )
        best[instance.output] = min(choices, key=lambda choice: choice.cost)

    return _stitch_cover(tree, best, in_tree, padding_net)


def _enumerate_subtrees(
    root: Instance,
    in_tree: Dict[str, Instance],
    max_depth: int,
) -> List[Tuple[Instance, ...]]:
    """Enumerate connected subtrees rooted at ``root`` with bounded depth."""

    def _expand(instance: Instance, depth: int) -> List[Tuple[Instance, ...]]:
        options_per_fanin: List[List[Tuple[Instance, ...]]] = []
        for net in instance.inputs:
            options: List[Tuple[Instance, ...]] = [()]
            driver = in_tree.get(net)
            if driver is not None and depth > 1:
                options.extend(_expand(driver, depth - 1))
            options_per_fanin.append(options)
        subtrees: List[Tuple[Instance, ...]] = []
        for combo in itertools.product(*options_per_fanin):
            included: List[Instance] = [instance]
            seen: Set[str] = {instance.name}
            for branch in combo:
                for inst in branch:
                    if inst.name not in seen:
                        seen.add(inst.name)
                        included.append(inst)
            subtrees.append(tuple(included))
        return subtrees

    subtrees = _expand(root, max_depth)
    # Free the self-referring closure now, not at the next cyclic collection.
    del _expand
    # Prefer larger subtrees first so equal-cost ties go to covers that absorb
    # more select logic.
    subtrees.sort(key=len, reverse=True)
    return subtrees


def _subtree_leaves(subtree: Sequence[Instance]) -> List[str]:
    """Ordered leaf nets of a subtree (inputs not driven within the subtree)."""
    produced = {instance.output for instance in subtree}
    leaves: List[str] = []
    seen: Set[str] = set()
    for instance in subtree:
        for net in instance.inputs:
            if net in produced or net in seen:
                continue
            seen.add(net)
            leaves.append(net)
    return leaves


def _stitch_cover(
    tree: Tree,
    best: Dict[str, _Choice],
    in_tree: Dict[str, Instance],
    padding_net: Optional[str],
) -> TreeCover:
    """Walk from the root selecting the chosen covers and emitting cells."""
    cover = TreeCover(tree=tree)
    pending = [tree.root_net]
    emitted: Set[str] = set()
    while pending:
        net = pending.pop()
        if net in emitted:
            continue
        emitted.add(net)
        choice = best.get(net)
        if choice is None:
            raise CoverError(f"net {net!r} has no cover (is it really in the tree?)")
        cell = choice.match.cell
        pin_nets = _assign_pins(choice, cell.num_inputs, padding_net)
        config = {
            assignment: choice.match.realisations[function]
            for assignment, function in choice.abstracted.by_select.items()
        }
        cover.cells.append(
            CoveredCell(
                output_net=net,
                cell_name=cell.name,
                pin_nets=pin_nets,
                data_leaves=choice.abstracted.data_leaves,
                select_leaves=choice.abstracted.select_leaves,
                config_by_select=config,
                area=cell.area,
            )
        )
        cover.cost += cell.area
        for leaf in choice.abstracted.data_leaves:
            if leaf in in_tree:
                pending.append(leaf)
    return cover


def _assign_pins(
    choice: _Choice, num_pins: int, padding_net: Optional[str]
) -> Tuple[str, ...]:
    """Connect data leaves to their matched pins; pad the unused pins."""
    data_leaves = choice.abstracted.data_leaves
    pin_nets: List[Optional[str]] = [None] * num_pins
    for leaf_index, pin in enumerate(choice.match.pin_of_leaf):
        pin_nets[pin] = data_leaves[leaf_index]
    filler = padding_net
    if filler is None:
        filler = data_leaves[0] if data_leaves else None
    if filler is None:
        raise CoverError(
            "cannot pad unused pins: no data leaves and no padding net provided"
        )
    default = data_leaves[0] if data_leaves else filler
    return tuple(net if net is not None else default for net in pin_nets)
