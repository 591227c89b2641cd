"""Algebraic factoring of two-level covers into multi-level expressions.

The refactor synthesis pass collapses a cone into a truth table, extracts an
irredundant SOP with :func:`repro.logic.isop.isop`, and then factors the SOP
into a multi-level expression whose literal count approximates the AIG cost
of the resynthesised cone.  The factoring here is the classic "quick factor"
style literal/kernel division: repeatedly divide the cover by its most common
literal.

The division runs on packed cubes, ``(positive, negative)`` literal masks,
and yields a packed *factored form*: ``True``/``False`` for the constants,
the literal code ``2 * var`` (positive) or ``2 * var + 1`` (negative) for a
literal, and ``(AND, operands)`` or ``(OR, operands)`` for a gate.  The
synthesis passes build AIG logic from forms directly (see
:func:`factored_form`); :func:`factor_table` and :func:`factor_cover` return
the same factoring as an :class:`Expression` over ``x0 .. x{n-1}``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .._bitops import mask_for
from .expr import And, Const, Expression, Not, Or, Var
from .isop import Cover, _isop_bits, isop
from .truthtable import TruthTable

__all__ = [
    "AND",
    "OR",
    "factor_cover",
    "factor_table",
    "factored_form",
    "expression_literal_count",
]

#: Gate tags of a factored form's ``(tag, operands)`` tuples.
AND = 0
OR = 1

#: A packed factored form (see the module docstring).
FactoredForm = Union[bool, int, Tuple[int, tuple]]


def factor_cover(cover: Cover) -> Expression:
    """Factor a cube cover into a multi-level expression.

    Variables are named ``x0 .. x{n-1}`` so that the expression can be turned
    back into a truth table or an AIG with a fixed variable order.
    """
    return _expression(_factor_cubes([(cube.positive, cube.negative) for cube in cover.cubes]))


def factor_table(table: TruthTable, dc_set: Optional[TruthTable] = None) -> Expression:
    """Extract an ISOP of ``table`` and factor it."""
    if table.is_constant_zero():
        return Const(0)
    if table.is_constant_one():
        return Const(1)
    return factor_cover(isop(table, dc_set))


def factored_form(num_vars: int, bits: int) -> FactoredForm:
    """The factored form of the packed table ``bits`` over ``num_vars`` inputs.

    It is the form of ``factor_table(TruthTable(num_vars, bits))``.
    """
    if not bits:
        return False
    if bits == mask_for(num_vars):
        return True
    return _factor_cubes(list(_isop_bits(bits, bits, num_vars)))


def _factor_cubes(cubes: List[Tuple[int, int]]) -> FactoredForm:
    if not cubes:
        return False
    if len(cubes) == 1:
        return _cube_form(*cubes[0])
    # How many cubes hold each literal code, keyed in the order the codes
    # are first met: cube by cube, then by variable, positive first.
    counts: Dict[int, int] = {}
    for cube in cubes:
        codes = _literal_codes(*cube)
        if not codes:
            return True
        for code in codes:
            counts[code] = counts.get(code, 0) + 1
    # ``max`` keeps the first of equal counts, so ties go to the first met.
    literal = max(counts, key=counts.__getitem__)
    if counts[literal] < 2:
        return (OR, tuple(_cube_form(*cube) for cube in cubes))

    # Divide by the literal: its cubes, without it, form the quotient.
    bit = 1 << (literal >> 1)
    quotient: List[Tuple[int, int]] = []
    remainder: List[Tuple[int, int]] = []
    for cube in cubes:
        positive, negative = cube
        if literal & 1:
            if negative & bit:
                quotient.append((positive, negative ^ bit))
                continue
        elif positive & bit:
            quotient.append((positive ^ bit, negative))
            continue
        remainder.append(cube)

    quotient_form = _factor_cubes(quotient)
    factored = literal if quotient_form is True else (AND, (literal, quotient_form))
    if not remainder:
        return factored
    return (OR, (factored, _factor_cubes(remainder)))


def _cube_form(positive: int, negative: int) -> FactoredForm:
    """The AND of a cube's literals (``True`` for the empty cube)."""
    codes = _literal_codes(positive, negative)
    if not codes:
        return True
    return codes[0] if len(codes) == 1 else (AND, tuple(codes))


def _literal_codes(positive: int, negative: int) -> List[int]:
    """A cube's literal codes by variable, positive before negative."""
    codes = []
    code = 0
    while positive or negative:
        if positive & 1:
            codes.append(code)
        if negative & 1:
            codes.append(code + 1)
        positive >>= 1
        negative >>= 1
        code += 2
    return codes


def _expression(form: FactoredForm) -> Expression:
    """The :class:`Expression` of a factored form."""
    if form is True or form is False:
        return Const(int(form))
    if isinstance(form, int):
        variable = Var(f"x{form >> 1}")
        return Not(variable) if form & 1 else variable
    tag, operands = form
    gate = And if tag == AND else Or
    return gate(tuple(_expression(operand) for operand in operands))


def expression_literal_count(expression: Expression) -> int:
    """Count literal occurrences in an expression (factored-form cost metric)."""
    if isinstance(expression, Var):
        return 1
    if isinstance(expression, Const):
        return 0
    if isinstance(expression, Not):
        return expression_literal_count(expression.operand)
    if isinstance(expression, (And, Or)):
        return sum(expression_literal_count(op) for op in expression.operands)
    if hasattr(expression, "operands"):
        return sum(expression_literal_count(op) for op in expression.operands)
    raise TypeError(f"unsupported expression node {type(expression).__name__}")
