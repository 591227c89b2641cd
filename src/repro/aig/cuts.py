"""k-feasible cut enumeration and cone analysis on AIGs.

Cut enumeration is the work-horse of the rewrite pass: for every AND node we
enumerate small sets of "leaf" nodes (the cut) such that the node's function
can be expressed over the leaves alone.  The module also provides the cut
function computation and the maximum-fanout-free-cone (MFFC) size used to
estimate the gain of replacing a cone.

The enumerator computes each kept cut's function and cone size bottom-up,
from the two fanin cuts it was merged from, as priority-cut mappers do
(Mishchenko et al., ICCAD'07).  The few cuts for which that would differ
from a walk of the cone bounded by the leaves take the walk instead, which
:func:`simulate_cone` also runs for a single cut.  :func:`sweep_cuts` hands
out each node's cuts as they are made, so the rewrite pass plans a node in
the same traversal (DAG-aware rewriting, Mishchenko et al., DAC'06).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection, Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .._bitops import mask_for, variable_pattern
from ..logic.truthtable import TruthTable
from .aig import Aig

__all__ = [
    "enumerate_cuts",
    "enumerate_cut_tables",
    "sweep_cuts",
    "walked_cut",
    "simulate_cone",
    "cut_function",
    "mffc_size",
    "collect_cone_cut",
]

Cut = FrozenSet[int]

#: A cut with its function: ``(leaves, bits, cone_ands)``, the sorted leaf
#: ids, the packed truth table of the node over them (leaf ``i`` is variable
#: ``i``) and the number of AND nodes in the cone they bound.
CutTable = Tuple[Tuple[int, ...], int, int]

#: A cut as the sweep keeps it: ``(mask, leaves, bits, cone)``, the leaf ids
#: as a bit mask and as a sorted tuple, the packed truth table of the node
#: over the leaves, and the AND nodes of the cone they bound as a bit mask.
CutRecord = Tuple[int, Tuple[int, ...], int, int]


def enumerate_cuts(
    aig: Aig, max_leaves: int = 4, max_cuts_per_node: int = 8
) -> Dict[int, List[Cut]]:
    """Enumerate k-feasible cuts for every node of the AIG.

    Returns a mapping from node id to a list of cuts (each cut is a frozenset
    of leaf node ids).  The trivial cut ``{node}`` is always included and is
    always the first element.
    """
    return {
        node: [frozenset(leaves) for _, leaves, _, _ in records]
        for node, records in sweep_cuts(aig, max_leaves, max_cuts_per_node)
    }


def enumerate_cut_tables(
    aig: Aig, max_leaves: int = 4, max_cuts_per_node: int = 8
) -> Dict[int, List[CutTable]]:
    """The cuts of :func:`enumerate_cuts`, each with its function and cone size.

    Every cut is a :data:`CutTable`, equal to ``(leaves,) +
    simulate_cone(aig, node, leaves)``.
    """
    return {
        node: [(leaves, bits, cone.bit_count()) for _, leaves, bits, cone in records]
        for node, records in sweep_cuts(aig, max_leaves, max_cuts_per_node)
    }


def sweep_cuts(
    aig: Aig, max_leaves: int = 4, max_cuts_per_node: int = 8
) -> Iterator[Tuple[int, List[CutRecord]]]:
    """Yield every node, bottom-up, with the records of its cuts.

    A node's cuts exist once it is yielded, so a caller can act on them
    before the sweep moves on.  Cuts are merged as bit masks over node ids,
    one cut of each fanin at a time (fanin0-major).  A merge is rejected
    when it has too many leaves or when an earlier accepted cut is a subset
    of it.  A mask that comes again meets the same tests, and the accepted
    list only grows, so a repeat is rejected like its first instance, or as
    a subset of itself.  An accepted cut's sorted leaves are the union of
    its two source cuts'.  The trivial cut comes first, then the smallest
    others by ``(size, sorted leaves)``.

    A kept cut's table is the AND of the tables of the two fanin cuts that
    first produced it, each re-expressed over the merged leaves and
    complemented with its fanin literal.  Its cone is theirs plus the node.
    When a leaf of one side lies inside the other side's cone, the cone walk
    stops at that leaf, so such a cut takes the walk.
    """
    fanins0, fanins1, is_input = aig.node_arrays()
    stretched_tables = _STRETCHED_TABLES
    # Node id -> its cut records; the constant node has none.
    records: List[List[CutRecord]] = [[]]
    for node in range(1, aig.num_nodes):
        trivial = 1 << node
        # The trivial cut: the projection of the node itself, with no cone.
        node_records: List[CutRecord] = [(trivial, (node,), 0b10, 0)]
        records.append(node_records)
        if is_input[node]:
            yield node, node_records
            continue
        fanin0 = fanins0[node]
        fanin1 = fanins1[node]
        records1 = records[fanin1 >> 1]
        accepted: List[int] = []
        # (size, leaves, mask, record0, record1) of every accepted cut; no
        # two share their leaves, so sorting ranks them by (size, leaves).
        ranked = []
        for record0 in records[fanin0 >> 1]:
            mask0 = record0[0]
            leaves0 = record0[1]
            for record1 in records1:
                merged = mask0 | record1[0]
                size = merged.bit_count()
                if size > max_leaves:
                    continue
                for mask in accepted:
                    if mask & merged == mask:
                        break
                else:
                    accepted.append(merged)
                    # About half the leaf tuple pairs do not interleave: join those in order.
                    leaves1 = record1[1]
                    if leaves0[-1] < leaves1[0]:
                        leaves = leaves0 + leaves1
                    elif leaves1[-1] < leaves0[0]:
                        leaves = leaves1 + leaves0
                    else:
                        leaves = tuple(sorted({*leaves0, *leaves1}))
                    ranked.append((size, leaves, merged, record0, record1))
        ranked.sort()
        for size, leaves, merged, record0, record1 in ranked[: max_cuts_per_node - 1]:
            mask0, leaves0, bits0, cone0 = record0
            mask1, leaves1, bits1, cone1 = record1
            if cone0 & mask1 or cone1 & mask0:
                node_records.append(walked_cut(aig, node, leaves))
                continue
            positions0 = positions1 = 0
            for position, leaf in enumerate(leaves):
                if leaf in leaves0:
                    positions0 |= 1 << position
                if leaf in leaves1:
                    positions1 |= 1 << position
            key0 = (bits0, positions0, size)
            bits0 = stretched_tables.get(key0)
            if bits0 is None:
                bits0 = _stretch_table(*key0)
            key1 = (bits1, positions1, size)
            bits1 = stretched_tables.get(key1)
            if bits1 is None:
                bits1 = _stretch_table(*key1)
            full = (1 << (1 << size)) - 1
            if fanin0 & 1:
                bits0 ^= full
            if fanin1 & 1:
                bits1 ^= full
            node_records.append((merged, leaves, bits0 & bits1, cone0 | cone1 | trivial))
        yield node, node_records


def walked_cut(aig: Aig, root: int, cut: Collection[int]) -> CutRecord:
    """The record of the cut ``cut`` of ``root``, from a walk of its cone."""
    leaves = tuple(sorted(cut))
    values = _cone_values(aig, root, leaves)
    mask = sum(1 << leaf for leaf in leaves)
    return (mask, leaves, values[root], sum(1 << node for node in values) ^ mask)


#: (bits, positions, width) -> the table re-expressed over ``width`` leaves.
#: The tables of small cuts recur across every rewrite call, so the memo is
#: process-wide; the bound keeps memory in check at wide leaf limits.
_STRETCHED_TABLES: Dict[Tuple[int, int, int], int] = {}
_STRETCHED_TABLES_LIMIT = 1 << 16


def _stretch_table(bits: int, positions: int, width: int) -> int:
    """Re-express a packed table over ``width`` variables, and memoise it.

    Variable ``i`` of ``bits`` becomes the ``i``-th set bit of ``positions``;
    the result does not depend on the other variables.
    """
    variables = [var for var in range(width) if positions >> var & 1]
    stretched = 0
    for row in range(1 << width):
        index = 0
        for bit, var in enumerate(variables):
            index |= (row >> var & 1) << bit
        stretched |= (bits >> index & 1) << row
    if len(_STRETCHED_TABLES) >= _STRETCHED_TABLES_LIMIT:
        _STRETCHED_TABLES.clear()
    _STRETCHED_TABLES[(bits, positions, width)] = stretched
    return stretched


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
    values = _cone_values(aig, root, leaves)
    return values[root], len(values) - len(leaves)


def _cone_values(aig: Aig, root: int, leaves: Sequence[int]) -> Dict[int, int]:
    """The packed table of every leaf and every AND node in the cone of ``root``."""
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
    return values


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
    fanins0, fanins1, is_input = aig.node_arrays()
    if not root or is_input[root]:
        return 0
    # Remaining reference counts of the nodes the walk has dereferenced.
    remaining: Dict[int, int] = {}
    freed = 0
    # Only AND nodes outside the cut are pushed, once their count is no
    # longer positive, so every node popped is freed.
    stack = [root]
    while stack:
        node = stack.pop()
        freed += 1
        for fanin in (fanins0[node] >> 1, fanins1[node] >> 1):
            if fanin in cut or not fanin or is_input[fanin]:
                continue
            count = remaining.get(fanin, reference_counts.get(fanin, 0)) - 1
            remaining[fanin] = count
            if count <= 0:
                stack.append(fanin)
    return freed


def collect_cone_cut(aig: Aig, root: int, max_leaves: int) -> Cut:
    """Greedily grow a cut for ``root`` by expanding AND leaves until the limit.

    Each step replaces the highest-numbered AND leaf whose two fanin nodes
    still fit within ``max_leaves`` by those nodes; the cut is done when no
    AND leaf fits.  Used by the refactor pass, which resynthesises one
    larger cone per node instead of many small cuts.
    """
    fanins0, fanins1, is_input = aig.node_arrays()
    leaves = {root}
    while True:
        # The cut's size without the leaf being expanded; an AND node's two
        # fanin nodes differ, and neither is the node itself.
        rest = len(leaves) - 1
        for leaf in sorted(leaves, reverse=True):
            if not leaf or is_input[leaf]:
                continue
            node0 = fanins0[leaf] >> 1
            node1 = fanins1[leaf] >> 1
            if rest + (node0 not in leaves) + (node1 not in leaves) <= max_leaves:
                leaves.remove(leaf)
                leaves.add(node0)
                leaves.add(node1)
                break
        else:
            return frozenset(leaves)
