"""Differential test: ``isop`` against a reference Minato–Morreale recursion.

The reference below runs the recursion on :class:`TruthTable` objects.  It
pins what every cover consumer relies on (the synthesis passes factor the
cubes in order, and the Tseitin encoder turns them into clauses in order):
the memo key ``(lower, upper)``, the split on the lowest variable either
bound depends on, the recursion order (negative cofactor, positive
cofactor, shared remainder) and the cube order (``cubes0`` with the
negative literal, ``cubes1`` with the positive literal, then the
remainder's cubes).  ``isop`` must return exactly the same cubes in the
same order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import Cube, TruthTable, isop


def reference_isop(
    onset: TruthTable, dc_set: Optional[TruthTable] = None
) -> List[Tuple[int, int]]:
    """The ``(positive, negative)`` masks of the reference cover, in order."""
    num_vars = onset.num_vars
    if dc_set is None:
        dc_set = TruthTable.constant(num_vars, False)
    memo: Dict[Tuple[int, int], Tuple[List[Cube], TruthTable]] = {}
    cubes, _cover_table = _isop_recursive(onset, onset | dc_set, num_vars, memo)
    return [(cube.positive, cube.negative) for cube in cubes]


def _isop_recursive(
    lower: TruthTable,
    upper: TruthTable,
    num_vars: int,
    memo: Dict[Tuple[int, int], Tuple[List[Cube], TruthTable]],
) -> Tuple[List[Cube], TruthTable]:
    """Minato–Morreale recursion: return (cubes, table of the cover)."""
    key = (lower.bits, upper.bits)
    cached = memo.get(key)
    if cached is not None:
        return cached

    if lower.is_constant_zero():
        result: Tuple[List[Cube], TruthTable] = ([], TruthTable.constant(num_vars, False))
        memo[key] = result
        return result
    if upper.is_constant_one():
        result = ([Cube(0, 0)], TruthTable.constant(num_vars, True))
        memo[key] = result
        return result

    split = _choose_split_variable(lower, upper)

    lower0, lower1 = lower.cofactor(split, 0), lower.cofactor(split, 1)
    upper0, upper1 = upper.cofactor(split, 0), upper.cofactor(split, 1)

    cubes0, table0 = _isop_recursive(lower0 & ~upper1, upper0, num_vars, memo)
    cubes1, table1 = _isop_recursive(lower1 & ~upper0, upper1, num_vars, memo)

    remaining = (lower0 & ~table0) | (lower1 & ~table1)
    cubes_star, table_star = _isop_recursive(remaining, upper0 & upper1, num_vars, memo)

    literal = TruthTable.variable(split, num_vars)
    cover_table = (table0 & ~literal) | (table1 & literal) | table_star
    cubes = (
        [cube.with_literal(split, False) for cube in cubes0]
        + [cube.with_literal(split, True) for cube in cubes1]
        + list(cubes_star)
    )
    result = (cubes, cover_table)
    memo[key] = result
    return result


def _choose_split_variable(lower: TruthTable, upper: TruthTable) -> int:
    """Pick the lowest variable that at least one of the bounds depends on."""
    for var in range(lower.num_vars):
        if lower.depends_on(var) or upper.depends_on(var):
            return var
    return 0


def tables(num_vars: int):
    return st.builds(
        TruthTable,
        st.just(num_vars),
        st.integers(min_value=0, max_value=(1 << (1 << num_vars)) - 1),
    )


@st.composite
def onset_and_dc(draw):
    num_vars = draw(st.integers(min_value=0, max_value=6))
    onset = draw(tables(num_vars))
    dc_set = draw(st.none() | tables(num_vars))
    return onset, dc_set


@given(onset_and_dc())
@settings(max_examples=200, deadline=None)
def test_isop_matches_reference_cube_for_cube(case):
    onset, dc_set = case
    cover = isop(onset, dc_set)
    assert [(cube.positive, cube.negative) for cube in cover] == reference_isop(onset, dc_set)
    assert cover.num_vars == onset.num_vars


@given(tables(5))
@settings(max_examples=50, deadline=None)
def test_isop_of_the_offset_matches_reference(table):
    # The Tseitin encoder covers both the on-set and the off-set.
    assert [(cube.positive, cube.negative) for cube in isop(~table)] == reference_isop(~table)
