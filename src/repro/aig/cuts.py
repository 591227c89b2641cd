"""k-feasible cut enumeration and cone analysis on AIGs.

Cut enumeration is the work-horse of the rewrite pass: for every AND node we
enumerate small sets of "leaf" nodes (the cut) such that the node's function
can be expressed over the leaves alone.  The module also provides the cut
function computation and the maximum-fanout-free-cone (MFFC) size used to
estimate the gain of replacing a cone.

Cut functions are simulated afresh on every call, in one post-order walk
over packed integers.  A cut-bounded cone has only a handful of AND nodes,
so the walk costs no more than building a structural cache key would.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection, Dict, FrozenSet, List, Sequence, Tuple

from .._bitops import mask_for, variable_pattern
from ..logic.truthtable import TruthTable
from .aig import Aig, node_of

__all__ = [
    "enumerate_cuts",
    "enumerate_cut_leaves",
    "simulate_cone",
    "cut_function",
    "mffc_size",
    "collect_cone_cut",
]

Cut = FrozenSet[int]


def enumerate_cuts(
    aig: Aig, max_leaves: int = 4, max_cuts_per_node: int = 8
) -> Dict[int, List[Cut]]:
    """Enumerate k-feasible cuts for every node of the AIG.

    Returns a mapping from node id to a list of cuts (each cut is a frozenset
    of leaf node ids).  The trivial cut ``{node}`` is always included and is
    always the first element.
    """
    return {
        node: [frozenset(leaves) for leaves in node_cuts]
        for node, node_cuts in enumerate_cut_leaves(aig, max_leaves, max_cuts_per_node).items()
    }


def enumerate_cut_leaves(
    aig: Aig, max_leaves: int = 4, max_cuts_per_node: int = 8
) -> Dict[int, List[Tuple[int, ...]]]:
    """The cuts of :func:`enumerate_cuts`, each as its sorted tuple of leaf ids.

    Cuts are merged as bit masks over node ids, one cut of each fanin at a
    time (fanin0-major).  A merge is rejected when it has too many leaves or
    when an earlier accepted cut is a subset of it; a rejected mask stays
    rejected, because the accepted list only grows, so each mask is tried
    once.  The trivial cut comes first, then the smallest others by
    ``(size, sorted leaves)``.
    """
    fanins0, fanins1, is_input = aig.node_arrays()
    masks: Dict[int, List[int]] = {}
    cuts: Dict[int, List[Tuple[int, ...]]] = {}
    for node in range(1, aig.num_nodes):
        trivial = 1 << node
        if is_input[node]:
            masks[node] = [trivial]
            cuts[node] = [(node,)]
            continue
        masks1 = masks[fanins1[node] >> 1]
        tried = set()
        accepted: List[int] = []
        for mask0 in masks[fanins0[node] >> 1]:
            for mask1 in masks1:
                merged = mask0 | mask1
                if merged in tried:
                    continue
                tried.add(merged)
                if merged.bit_count() > max_leaves:
                    continue
                for mask in accepted:
                    if mask & merged == mask:
                        break
                else:
                    accepted.append(merged)
        ranked = sorted((mask.bit_count(), _leaves_of(mask), mask) for mask in accepted)
        ranked = ranked[: max_cuts_per_node - 1]
        masks[node] = [trivial] + [mask for _, _, mask in ranked]
        cuts[node] = [(node,)] + [leaves for _, leaves, _ in ranked]
    return cuts


def _leaves_of(mask: int) -> Tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending."""
    leaves = []
    while mask:
        lowest = mask & -mask
        leaves.append(lowest.bit_length() - 1)
        mask ^= lowest
    return tuple(leaves)


@lru_cache(maxsize=16)
def _projections(num_vars: int) -> Tuple[int, ...]:
    """Packed truth tables of the ``num_vars`` projection functions."""
    return tuple(variable_pattern(var, num_vars) for var in range(num_vars))


def simulate_cone(aig: Aig, root: int, leaves: Sequence[int]) -> Tuple[int, int]:
    """Simulate the cone of ``root`` bounded by ``leaves``.

    Leaf ``i`` is variable ``i``.  Returns the packed truth table of
    ``root`` over the leaves and the number of AND nodes in the cone.
    Raises :class:`ValueError` when a node that is not an AND node is
    reachable from ``root`` without passing through a leaf.
    """
    num_vars = len(leaves)
    mask = mask_for(num_vars)
    values: Dict[int, int] = dict(zip(leaves, _projections(num_vars)))
    fanins0, fanins1, is_input = aig.node_arrays()
    # Post-order walk: a node is evaluated once both fanins have values.
    stack = [root]
    while stack:
        node = stack[-1]
        if node in values:
            stack.pop()
            continue
        if not node or is_input[node]:
            raise ValueError(f"node {node} is outside the cut cone but not a leaf")
        fanin0 = fanins0[node]
        fanin1 = fanins1[node]
        value0 = values.get(fanin0 >> 1)
        value1 = values.get(fanin1 >> 1)
        if value0 is None or value1 is None:
            if value1 is None:
                stack.append(fanin1 >> 1)
            if value0 is None:
                stack.append(fanin0 >> 1)
            continue
        stack.pop()
        if fanin0 & 1:
            value0 ^= mask
        if fanin1 & 1:
            value1 ^= mask
        values[node] = value0 & value1
    return values[root], len(values) - num_vars


def cut_function(aig: Aig, root: int, cut: Cut) -> Tuple[TruthTable, List[int]]:
    """Return the function of ``root`` over the cut leaves.

    The leaves are ordered by node id; the returned list gives that order so
    the caller knows which truth-table variable corresponds to which leaf.
    """
    leaves = sorted(cut)
    bits, _ = simulate_cone(aig, root, leaves)
    return TruthTable(len(leaves), bits), leaves


def mffc_size(
    aig: Aig, root: int, cut: Collection[int], reference_counts: Dict[int, int]
) -> int:
    """Return the number of AND nodes freed if ``root`` were re-expressed over ``cut``.

    This is the size of the maximum fanout-free cone of ``root`` bounded by
    the cut leaves: the nodes whose only remaining references come from inside
    the cone.  ``reference_counts`` must be the current fanout counts of the
    AIG (they are not modified).
    """
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


def collect_cone_cut(aig: Aig, root: int, max_leaves: int) -> Cut:
    """Greedily grow a cut for ``root`` by expanding AND leaves until the limit.

    Used by the refactor pass, which resynthesises one larger cone per node
    instead of many small cuts.
    """
    leaves = {root}
    while True:
        expandable = [
            leaf
            for leaf in leaves
            if aig.is_and_node(leaf)
        ]
        if not expandable:
            break
        progressed = False
        # Expand the leaf whose expansion keeps the cut smallest.
        expandable.sort(key=lambda leaf: leaf, reverse=True)
        for leaf in expandable:
            fanin0, fanin1 = aig.fanins(leaf)
            new_leaves = (leaves - {leaf}) | {node_of(fanin0), node_of(fanin1)}
            if len(new_leaves) <= max_leaves:
                leaves = new_leaves
                progressed = True
                break
        if not progressed:
            break
    return frozenset(leaves)
