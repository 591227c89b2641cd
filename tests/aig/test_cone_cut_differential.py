"""Differential test: ``collect_cone_cut`` against the body that walked ``is_and_node``/``fanins``.

``reference_collect_cone_cut`` below is the previous body, kept verbatim:
after each expansion it lists the AND leaves again through
``Aig.is_and_node``, sorts them, and tries each through ``Aig.fanins`` and
a new set.  ``collect_cone_cut`` reads the node arrays and counts the
leaves an expansion would add instead.  Both must give the same leaves for
every node, the constant and the inputs included, at every leaf limit from
0 to 10: on the cut test's AIGs (tables of 3 to 6 inputs, raw, balanced or
balanced and rewritten) and on the compact test's, which add inputs after
AND nodes and leave dead nodes.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.aig import Aig, collect_cone_cut
from repro.aig.aig import node_of

from test_compact_differential import aigs as interleaved_aigs
from test_cuts_differential import aigs as table_aigs

LIMITS = range(0, 11)


def reference_collect_cone_cut(aig: Aig, root: int, max_leaves: int):
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
        # Expand the highest-id leaf whose expansion stays within the limit.
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


def _assert_cone_cuts_match(aig: Aig) -> None:
    for max_leaves in LIMITS:
        for root in range(aig.num_nodes):
            cut = collect_cone_cut(aig, root, max_leaves)
            assert type(cut) is frozenset
            assert cut == reference_collect_cone_cut(aig, root, max_leaves)


@given(table_aigs())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_cone_cuts_match_reference(aig):
    _assert_cone_cuts_match(aig)


@given(interleaved_aigs())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_cone_cuts_match_reference_with_late_inputs(aig):
    _assert_cone_cuts_match(aig)
