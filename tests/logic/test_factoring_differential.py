"""Differential test: packed factoring against the ``Cube``/``Counter`` reference.

The reference below is the factoring as it ran on :class:`Cube` objects,
with a :class:`Counter` for the literal counts and an :class:`Expression`
built per cube, and the rewrite pass's cost of a factored expression: its
AND nodes after :func:`build_expression` into a scratch AIG with inputs
``x0 .. x{n-1}``.  ``factor_table`` and ``factor_cover`` must return equal
expressions, and the rewrite pass's factored-form entry an equal cost.
What pins the form is the division rule: divide by the literal in most
cubes (at least two), and on a tie by the one met first in cube order,
then in variable order, positive before negative.  So the generated
covers and tables draw their cubes from a few literals, where counts tie.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, build_expression
from repro.aig.opt import _resynthesis, clear_factored_form_cache
from repro.logic import Cover, Cube, TruthTable, factor_cover, factor_table, isop
from repro.logic.expr import And, Const, Expression, Not, Or, Var


def _literal_name(var: int) -> str:
    return f"x{var}"


def literal_expression(var: int, is_positive: bool) -> Expression:
    """Return the expression for a single literal of variable ``var``."""
    expression: Expression = Var(_literal_name(var))
    return expression if is_positive else Not(expression)


def cube_expression(cube: Cube) -> Expression:
    """Return the AND expression of a cube (constant 1 for the empty cube)."""
    literals = [literal_expression(var, pos) for var, pos in cube.literals()]
    if not literals:
        return Const(1)
    if len(literals) == 1:
        return literals[0]
    return And(tuple(literals))


def reference_factor_cover(cover: Cover) -> Expression:
    if not cover.cubes:
        return Const(0)
    return _factor_cubes(list(cover.cubes))


def reference_factor_table(
    table: TruthTable, dc_set: Optional[TruthTable] = None
) -> Expression:
    if table.is_constant_zero():
        return Const(0)
    if table.is_constant_one():
        return Const(1)
    return reference_factor_cover(isop(table, dc_set))


def _factor_cubes(cubes: List[Cube]) -> Expression:
    if not cubes:
        return Const(0)
    if len(cubes) == 1:
        return cube_expression(cubes[0])
    if any(cube.num_literals() == 0 for cube in cubes):
        return Const(1)

    best_literal = _most_common_literal(cubes)
    if best_literal is None:
        terms = tuple(cube_expression(cube) for cube in cubes)
        return Or(terms)

    var, is_positive = best_literal
    quotient: List[Cube] = []
    remainder: List[Cube] = []
    for cube in cubes:
        if is_positive and (cube.positive >> var) & 1:
            quotient.append(Cube(cube.positive & ~(1 << var), cube.negative))
        elif not is_positive and (cube.negative >> var) & 1:
            quotient.append(Cube(cube.positive, cube.negative & ~(1 << var)))
        else:
            remainder.append(cube)

    if len(quotient) <= 1:
        # Dividing would not group anything; fall back to a flat OR of cubes,
        # each individually factored (they are single cubes so this is an AND).
        terms = tuple(cube_expression(cube) for cube in cubes)
        return Or(terms)

    literal = literal_expression(var, is_positive)
    quotient_expr = _factor_cubes(quotient)
    factored: Expression
    if isinstance(quotient_expr, Const) and quotient_expr.value == 1:
        factored = literal
    else:
        factored = And((literal, quotient_expr))
    if not remainder:
        return factored
    remainder_expr = _factor_cubes(remainder)
    return Or((factored, remainder_expr))


def _most_common_literal(cubes: Sequence[Cube]) -> Optional[Tuple[int, bool]]:
    """Return the literal occurring in the largest number of cubes (>= 2)."""
    counts: Counter = Counter()
    for cube in cubes:
        for var, is_positive in cube.literals():
            counts[(var, is_positive)] += 1
    if not counts:
        return None
    (literal, count) = counts.most_common(1)[0]
    if count < 2:
        return None
    return literal


def reference_count_cost(expression: Expression, num_vars: int) -> int:
    scratch = Aig("scratch")
    literals = {f"x{index}": scratch.add_input() for index in range(num_vars)}
    output = build_expression(scratch, expression, literals)
    scratch.add_output(output)
    return scratch.num_live_ands()


def _check_table(table: TruthTable, dc_set: Optional[TruthTable] = None) -> None:
    assert factor_table(table, dc_set) == reference_factor_table(table, dc_set)
    if dc_set is None:
        clear_factored_form_cache()
        _form, cost = _resynthesis(table.num_vars, table.bits)
        assert cost == reference_count_cost(reference_factor_table(table), table.num_vars)


def test_every_table_of_up_to_three_inputs():
    count = 0
    for num_vars in (1, 2, 3):
        for bits in range(1 << (1 << num_vars)):
            _check_table(TruthTable(num_vars, bits))
            count += 1
    assert count == 276


@st.composite
def cube_masks(draw, num_vars: int):
    """Cube masks over a few literals, so that literal counts tie often."""
    mask = (1 << num_vars) - 1
    positive_pool = draw(st.integers(0, mask))
    negative_pool = draw(st.integers(0, mask))
    cubes = st.tuples(st.integers(0, positive_pool), st.integers(0, negative_pool))
    return [
        (positive & positive_pool, negative & negative_pool)
        for positive, negative in draw(st.lists(cubes, max_size=10))
    ]


def _cube_bits(positive: int, negative: int, num_vars: int) -> int:
    bits = (1 << (1 << num_vars)) - 1
    for var in range(num_vars):
        literal = TruthTable.variable(var, num_vars).bits
        if (positive >> var) & 1:
            bits &= literal
        if (negative >> var) & 1:
            bits &= ~literal
    return bits


@st.composite
def tables(draw, min_vars: int = 4, max_vars: int = 8):
    """A table of ``min_vars``–``max_vars`` inputs: random bits, or an OR of
    cubes over a few literals, possibly XORed with another such table."""
    num_vars = draw(st.integers(min_vars, max_vars))
    if draw(st.booleans()):
        return TruthTable(num_vars, draw(st.integers(0, (1 << (1 << num_vars)) - 1)))
    layers = []
    for _ in range(draw(st.integers(1, 2))):
        bits = 0
        for positive, negative in draw(cube_masks(num_vars)):
            bits |= _cube_bits(positive, negative, num_vars)
        layers.append(bits)
    bits = layers[0]
    for layer in layers[1:]:
        bits ^= layer
    return TruthTable(num_vars, bits)


@given(tables())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_tables_match_reference(table):
    _check_table(table)
    _check_table(~table)


@given(tables(min_vars=1), st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_tables_with_dont_cares_match_reference(table, data):
    dc_set = data.draw(tables(min_vars=table.num_vars, max_vars=table.num_vars))
    _check_table(table, dc_set)
    _check_table(table, dc_set & ~table)


@st.composite
def covers(draw):
    """Arbitrary cube lists, which need not be irredundant: repeated cubes,
    cubes with a variable in both polarities, and the empty cube."""
    num_vars = draw(st.integers(1, 8))
    cubes = [Cube(positive, negative) for positive, negative in draw(cube_masks(num_vars))]
    if draw(st.booleans()):
        cubes.insert(draw(st.integers(0, len(cubes))), Cube(0, 0))
    return Cover(cubes, num_vars)


@given(covers())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_covers_match_reference(cover):
    assert factor_cover(cover) == reference_factor_cover(cover)


def test_fixed_covers_match_reference():
    cases = [
        Cover([], 3),
        Cover([Cube(0, 0)], 3),
        Cover([Cube(0b1, 0b1)], 2),
        # x0 & ~x0 in two cubes: both literals tie, the positive one first.
        Cover([Cube(0b1, 0b1), Cube(0b11, 0b1)], 2),
        # Every literal of the parity of three inputs ties at two cubes.
        isop(TruthTable(3, 0b10010110)),
        Cover([Cube(0b10, 0), Cube(0b1, 0), Cube(0b11, 0), Cube(0, 0)], 2),
    ]
    for cover in cases:
        assert factor_cover(cover) == reference_factor_cover(cover)
