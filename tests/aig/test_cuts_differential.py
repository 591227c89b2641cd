"""Differential test: ``enumerate_cuts`` against a reference frozenset loop.

The reference below merges fanin cuts as frozensets.  It pins the cut lists
the rewrite pass consumes: merge as the union of one cut per fanin
(fanin0-major), skip a merge already tried, reject one above ``max_leaves``
or one that an earlier accepted cut is a subset of, then rank by
``(size, sorted leaves)`` and keep the trivial cut plus the first
``max_cuts_per_node - 1``.  ``enumerate_cuts`` must return the same cuts in
the same order for every node, and ``enumerate_cut_leaves`` the same cuts
as sorted leaf tuples.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, aig_from_tables, balance, enumerate_cuts, rewrite
from repro.aig.cuts import enumerate_cut_leaves
from repro.aig.aig import node_of
from repro.logic import TruthTable

Cut = FrozenSet[int]

LIMITS = [(4, 8), (3, 4), (6, 12), (2, 1)]


def reference_cuts(aig: Aig, max_leaves: int, max_cuts_per_node: int) -> Dict[int, List[Cut]]:
    cuts: Dict[int, List[Cut]] = {}
    for node in range(1, aig.num_nodes):
        trivial: Cut = frozenset({node})
        if aig.is_input_node(node):
            cuts[node] = [trivial]
            continue
        fanin0, fanin1 = aig.fanins(node)
        candidates: List[Cut] = [trivial]
        seen = {trivial}
        for cut0 in cuts[node_of(fanin0)]:
            for cut1 in cuts[node_of(fanin1)]:
                merged = cut0 | cut1
                if len(merged) > max_leaves:
                    continue
                if merged in seen:
                    continue
                if _is_dominated(merged, candidates):
                    continue
                seen.add(merged)
                candidates.append(merged)
        non_trivial = sorted(candidates[1:], key=lambda cut: (len(cut), sorted(cut)))
        cuts[node] = [trivial] + non_trivial[: max_cuts_per_node - 1]
    return cuts


def _is_dominated(candidate: Cut, existing: Sequence[Cut]) -> bool:
    return any(cut != candidate and cut <= candidate for cut in existing[1:])


@st.composite
def aigs(draw):
    num_inputs = draw(st.integers(min_value=3, max_value=6))
    num_outputs = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    tables = [TruthTable(num_inputs, rng.getrandbits(1 << num_inputs)) for _ in range(num_outputs)]
    aig = aig_from_tables(tables)
    optimisation = draw(st.sampled_from(["none", "balance", "balance+rewrite"]))
    if optimisation != "none":
        aig = balance(aig)
    if optimisation == "balance+rewrite":
        aig = rewrite(aig)
    return aig


@given(aigs())
@settings(max_examples=60, deadline=None)
def test_enumerate_cuts_matches_reference(aig):
    for max_leaves, max_cuts_per_node in LIMITS:
        expected = reference_cuts(aig, max_leaves, max_cuts_per_node)
        assert enumerate_cuts(aig, max_leaves, max_cuts_per_node) == expected
        assert enumerate_cut_leaves(aig, max_leaves, max_cuts_per_node) == {
            node: [tuple(sorted(cut)) for cut in cuts] for node, cuts in expected.items()
        }
