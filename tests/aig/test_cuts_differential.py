"""Differential test: ``enumerate_cuts`` against a reference frozenset loop.

The reference below merges fanin cuts as frozensets.  It pins the cut lists
the rewrite pass consumes: merge as the union of one cut per fanin
(fanin0-major), skip a merge already tried, reject one above ``max_leaves``
or one that an earlier accepted cut is a subset of, then rank by
``(size, sorted leaves)`` and keep the trivial cut plus the first
``max_cuts_per_node - 1``.  ``enumerate_cuts`` must return the same cuts in
the same order for every node, and ``enumerate_cut_tables`` the same cuts
as sorted leaf tuples, each with the table and cone size that
``simulate_cone`` gives for it.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, aig_from_tables, balance, enumerate_cuts, rewrite
from repro.aig import cuts as cuts_module
from repro.aig.aig import negate, node_of
from repro.aig.cuts import enumerate_cut_tables, simulate_cone
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
        cut_tables = enumerate_cut_tables(aig, max_leaves, max_cuts_per_node)
        assert {
            node: [leaves for leaves, _, _ in node_cuts] for node, node_cuts in cut_tables.items()
        } == {node: [tuple(sorted(cut)) for cut in cuts] for node, cuts in expected.items()}
        for node, node_cuts in cut_tables.items():
            for leaves, bits, cone_ands in node_cuts:
                assert (bits, cone_ands) == simulate_cone(aig, node, leaves)


def test_leaf_inside_other_fanin_cone_takes_the_cone_walk(monkeypatch):
    """z = ~x & y with x = a & b and y = b & ~x.

    z's cut {a, b, x} first arises from x's trivial cut and y's cut {a, b},
    whose cone holds the leaf x.  The walk stops at x, so z is b & ~x over
    the cut, with 2 AND nodes, not the merge's b & ~a & ~x with 3.
    """
    aig = Aig("overlap")
    a = aig.add_input("a")
    b = aig.add_input("b")
    x = aig.and_(a, b)
    y = aig.and_(b, negate(x))
    z = aig.and_(negate(x), y)
    aig.add_output(z)
    walks = []
    cone_values = cuts_module._cone_values

    def recording_cone_values(aig, root, leaves):
        walks.append((root, tuple(leaves)))
        return cone_values(aig, root, leaves)

    monkeypatch.setattr(cuts_module, "_cone_values", recording_cone_values)
    cut_tables = enumerate_cut_tables(aig)
    leaves = tuple(sorted({node_of(a), node_of(b), node_of(x)}))
    assert walks == [(node_of(z), leaves)]
    assert (leaves, 0b00001100, 2) in cut_tables[node_of(z)]
