"""Differential test: ``balance`` against the body that walked the AIG's methods.

``reference_balance`` below is ``balance`` as it was before it read the
AIG's node arrays: it collected each AND tree through ``is_and_node`` and
``fanins``, and took a leaf's level in the new AIG from a memo filled
through the new AIG's ``fanins``.  ``balance`` must give the same structure
and output names on the generated AIGs of the ``compact`` differential test,
which have dead nodes, constant and complemented outputs, and inputs added
after AND nodes.
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import given, settings

from repro.aig import Aig, balance
from repro.aig.aig import FALSE_LIT, is_complemented, negate, node_of
from repro.synth.script import _aig_structure_key

from test_compact_differential import aigs


def reference_balance(aig: Aig) -> Aig:
    result = Aig(aig.name)
    mapping: Dict[int, int] = {0: FALSE_LIT}
    for index in range(aig.num_inputs):
        node = node_of(aig.input_literal(index))
        mapping[node] = result.add_input(aig.input_names[index])

    reference = aig.reference_counts()
    level_cache: Dict[int, int] = {0: 0}

    def _level_of(literal: int) -> int:
        node = node_of(literal)
        cached = level_cache.get(node)
        if cached is not None:
            return cached
        if result.is_and_node(node):
            fanin0, fanin1 = result.fanins(node)
            value = 1 + max(_level_of(fanin0), _level_of(fanin1))
        else:
            value = 0
        level_cache[node] = value
        return value

    def _map_literal(literal: int) -> int:
        mapped = mapping[node_of(literal)]
        return negate(mapped) if is_complemented(literal) else mapped

    def _collect_tree(literal: int, root: bool) -> List[int]:
        node = node_of(literal)
        if (
            is_complemented(literal)
            or not aig.is_and_node(node)
            or (not root and reference.get(node, 0) > 1)
        ):
            return [literal]
        fanin0, fanin1 = aig.fanins(node)
        return _collect_tree(fanin0, False) + _collect_tree(fanin1, False)

    for node in aig.and_nodes():
        leaves = _collect_tree(Aig.lit(node), True)
        mapped_leaves = [_map_literal(leaf) for leaf in leaves]
        mapped_leaves.sort(key=_level_of)
        mapping[node] = result.and_many(mapped_leaves)

    for literal, name in zip(aig.outputs, aig.output_names):
        result.add_output(_map_literal(literal), name)
    return result.compact()


def _balanced_state(aig: Aig):
    return _aig_structure_key(aig), aig.name, aig.input_names, aig.output_names


@given(aigs())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_balance_matches_reference(aig):
    assert _balanced_state(balance(aig)) == _balanced_state(reference_balance(aig))
    # Balancing twice walks trees whose leaves sit at mixed levels.
    once = balance(aig)
    assert _balanced_state(balance(once)) == _balanced_state(reference_balance(once))


def test_tree_over_a_late_input():
    aig = Aig("late")
    a = aig.add_input("a")
    b = aig.add_input("b")
    x = aig.and_(a, b)
    c = aig.add_input("c")
    d = aig.add_input("d")
    y = aig.and_(aig.and_(x, c), d)
    aig.add_output(y, "y")
    aig.add_output(negate(aig.and_(x, negate(d))), "z")
    assert _balanced_state(balance(aig)) == _balanced_state(reference_balance(aig))
