"""Forest decomposition of a mapped netlist into fanout-free trees.

As in classical tree-covering technology mapping (DAGON), the circuit graph
is split at every multi-fanout net: each primary output or multi-fanout net
becomes the root of a tree, and the tree contains every instance that feeds
the root exclusively through single-fanout nets.  Tree leaves are primary
inputs (including the select inputs that Phase III will abstract away),
constants, and the roots of other trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..netlist.netlist import CONST0_NET, CONST1_NET, Instance, Netlist

__all__ = ["Tree", "decompose_into_trees"]


@dataclass
class Tree:
    """A fanout-free subcircuit with a single output net."""

    root_net: str
    instances: List[Instance] = field(default_factory=list)
    leaf_nets: List[str] = field(default_factory=list)

    @property
    def instance_names(self) -> Set[str]:
        """Names of the instances belonging to the tree."""
        return {instance.name for instance in self.instances}

    def driver_within(self, net: str) -> Optional[Instance]:
        """Return the in-tree instance driving ``net`` (None for leaves)."""
        for instance in self.instances:
            if instance.output == net:
                return instance
        return None

    def __repr__(self) -> str:
        return (
            f"Tree(root={self.root_net!r}, instances={len(self.instances)}, "
            f"leaves={len(self.leaf_nets)})"
        )


def decompose_into_trees(netlist: Netlist) -> List[Tree]:
    """Split the netlist into fanout-free trees.

    Trees are returned in topological order of their root nets (a tree's
    leaves are either primary inputs, constants, or roots of earlier trees),
    which is convenient for mappers that need leaf information to exist
    before a tree is processed.
    """
    fanout = netlist.fanout_counts()
    root_nets: List[str] = []
    seen_roots: Set[str] = set()
    for instance in netlist.topological_order():
        net = instance.output
        is_root = net in netlist.primary_outputs or fanout.get(net, 0) > 1
        if is_root and net not in seen_roots:
            seen_roots.add(net)
            root_nets.append(net)
    # Any instance whose output has zero fanout and is not a primary output is
    # dangling; treat it as a root as well so nothing is silently dropped.
    for instance in netlist.topological_order():
        net = instance.output
        if fanout.get(net, 0) == 0 and net not in netlist.primary_outputs and net not in seen_roots:
            seen_roots.add(net)
            root_nets.append(net)

    trees: List[Tree] = []
    for root in root_nets:
        trees.append(_build_tree(netlist, root, seen_roots))
    return trees


def _build_tree(netlist: Netlist, root_net: str, root_set: Set[str]) -> Tree:
    tree = Tree(root_net=root_net)
    leaf_order: List[str] = []
    leaf_seen: Set[str] = set()
    collected: List[Instance] = []

    def _visit(net: str, is_root: bool) -> None:
        driver = netlist.driver_of(net)
        stop = (
            driver is None
            or net in (CONST0_NET, CONST1_NET)
            or (not is_root and net in root_set)
        )
        if stop:
            if net not in leaf_seen:
                leaf_seen.add(net)
                leaf_order.append(net)
            return
        for fanin in driver.inputs:
            _visit(fanin, False)
        collected.append(driver)

    _visit(root_net, True)
    # Free the self-referring closure now, not at the next cyclic collection.
    del _visit
    tree.instances = collected  # already in topological (post-order) order
    tree.leaf_nets = leaf_order
    return tree
