"""Differential test: ``Aig.compact`` against the body that rebuilt through ``and_``.

``reference_compact`` below adds every input, then re-inserts each live AND
node, in node order, through ``Aig.and_`` with its fanins mapped.  ``compact``
copies the mapped fanin pairs instead, which is exact only because a hashed
AIG has no pair that ``and_`` would simplify or merge.  The generated AIGs
have dead nodes, constant and complemented outputs, and inputs added after
AND nodes, whose mapped pairs come out of order unless they are re-sorted.
"""

from __future__ import annotations

from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig
from repro.aig.aig import FALSE_LIT, is_complemented, negate, node_of


def reference_compact(aig: Aig, name: Optional[str] = None) -> Aig:
    result = Aig(name or aig.name)
    mapping: Dict[int, int] = {0: FALSE_LIT}
    for index, node in enumerate(aig._input_nodes):
        mapping[node] = result.add_input(aig._input_names[index])
    live = set(aig.live_nodes())
    for node in range(1, aig.num_nodes):
        if aig._is_input[node] or node not in live:
            continue
        fanin0 = _map_literal(aig._fanin0[node], mapping)
        fanin1 = _map_literal(aig._fanin1[node], mapping)
        mapping[node] = result.and_(fanin0, fanin1)
    for literal, output_name in zip(aig._outputs, aig._output_names):
        result.add_output(_map_literal(literal, mapping), output_name)
    return result


def _map_literal(literal: int, mapping: Dict[int, int]) -> int:
    mapped = mapping[node_of(literal)]
    return negate(mapped) if is_complemented(literal) else mapped


@st.composite
def aigs(draw):
    """An AIG built by interleaving ``add_input`` and ``and_`` calls.

    The last literal built is always an output, so the deepest logic is
    live; the other outputs may be constants, complemented or dead-ended.
    """
    aig = Aig("random")
    literals = [aig.add_input(f"in{index}") for index in range(draw(st.integers(1, 3)))]
    pick = st.integers(0, 10**6)
    steps = draw(st.lists(st.tuples(st.integers(0, 3), pick, pick), min_size=2, max_size=30))
    for kind, pick0, pick1 in steps:
        if kind == 0:
            literals.append(aig.add_input(f"in{aig.num_inputs}"))
            continue
        # The low bit of a pick complements the literal the rest selects.
        fanin0 = literals[(pick0 >> 1) % len(literals)] ^ (pick0 & 1)
        fanin1 = literals[(pick1 >> 1) % len(literals)] ^ (pick1 & 1)
        literals.append(aig.and_(fanin0, fanin1))
    aig.add_output(literals[-1])
    candidates = [0, 1] + [literal ^ phase for literal in literals for phase in (0, 1)]
    for literal in draw(st.lists(st.sampled_from(candidates), max_size=3)):
        aig.add_output(literal)
    return aig


def _state(aig: Aig):
    return (
        aig.name,
        aig._fanin0,
        aig._fanin1,
        aig._is_input,
        aig._input_nodes,
        aig._outputs,
        aig._strash,
        aig._input_names,
        aig._output_names,
    )


@given(aigs())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_compact_matches_and_rebuild(aig):
    assert _state(aig.compact()) == _state(reference_compact(aig))
    assert _state(aig.compact("renamed")) == _state(reference_compact(aig, "renamed"))


def test_pair_with_a_late_input_is_resorted():
    aig = Aig("late")
    a = aig.add_input("a")
    b = aig.add_input("b")
    x = aig.and_(a, b)
    c = aig.add_input("c")
    aig.add_output(aig.and_(x, negate(c)))
    compacted = aig.compact()
    # c moves in front of x, so the pair (x, ~c) becomes (~c, x).
    assert compacted._fanin0[5] == negate(compacted.input_literal(2))
    assert _state(compacted) == _state(reference_compact(aig))
