"""Irredundant sum-of-products extraction (Minato–Morreale ISOP).

The synthesis rewrite/refactor passes resynthesise small cones from their
truth tables.  ISOP gives a compact two-level cover which is subsequently
factored (:mod:`repro.logic.factoring`) into a multi-level form.

Cubes are represented by :class:`Cube`: two bit masks over the variable
indices, one for positive literals and one for negative literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .._bitops import mask_for, popcount, variable_pattern
from .truthtable import TruthTable

__all__ = ["Cube", "Cover", "isop", "cover_to_table"]

#: Cubes as ``(positive, negative)`` literal masks, the packed form of :class:`Cube`.
_Cubes = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class Cube:
    """A product term: conjunction of positive and negative literals."""

    positive: int
    negative: int

    def literals(self) -> List[Tuple[int, bool]]:
        """Return (variable, is_positive) pairs for the cube's literals."""
        result: List[Tuple[int, bool]] = []
        var = 0
        positive, negative = self.positive, self.negative
        while positive or negative:
            if positive & 1:
                result.append((var, True))
            if negative & 1:
                result.append((var, False))
            positive >>= 1
            negative >>= 1
            var += 1
        return result

    def num_literals(self) -> int:
        """Return the number of literals in the cube."""
        return popcount(self.positive) + popcount(self.negative)

    def with_literal(self, var: int, is_positive: bool) -> "Cube":
        """Return a copy of the cube with one extra literal."""
        if is_positive:
            return Cube(self.positive | (1 << var), self.negative)
        return Cube(self.positive, self.negative | (1 << var))

    def to_table(self, num_vars: int) -> TruthTable:
        """Return the truth table of the cube over ``num_vars`` inputs."""
        table = TruthTable.constant(num_vars, True)
        for var, is_positive in self.literals():
            literal = TruthTable.variable(var, num_vars)
            table = table & (literal if is_positive else ~literal)
        return table

    def contradicts(self) -> bool:
        """Return True if the cube contains a variable in both polarities."""
        return bool(self.positive & self.negative)


class Cover:
    """A sum of cubes over a fixed number of variables."""

    __slots__ = ("cubes", "num_vars")

    def __init__(self, cubes: List[Cube], num_vars: int):
        self.cubes = list(cubes)
        self.num_vars = num_vars

    def num_literals(self) -> int:
        """Total literal count across all cubes (the classic SOP cost)."""
        return sum(cube.num_literals() for cube in self.cubes)

    def to_table(self) -> TruthTable:
        """Return the truth table of the cover."""
        return cover_to_table(self.cubes, self.num_vars)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def __repr__(self) -> str:
        return f"Cover(num_vars={self.num_vars}, cubes={len(self.cubes)})"


def cover_to_table(cubes: List[Cube], num_vars: int) -> TruthTable:
    """OR together the truth tables of all cubes."""
    table = TruthTable.constant(num_vars, False)
    for cube in cubes:
        table = table | cube.to_table(num_vars)
    return table


def isop(onset: TruthTable, dc_set: Optional[TruthTable] = None) -> Cover:
    """Compute an irredundant SOP cover of ``onset`` using the don't-care set.

    The returned cover ``C`` satisfies ``onset <= C <= onset | dc_set``.
    When ``dc_set`` is omitted, the cover is exactly equivalent to ``onset``.
    """
    num_vars = onset.num_vars
    upper = onset.bits
    if dc_set is not None:
        if dc_set.num_vars != num_vars:
            raise ValueError("onset and don't-care set must share the input space")
        upper |= dc_set.bits
    cubes = _isop_bits(onset.bits, upper, num_vars)
    return Cover([Cube(positive, negative) for positive, negative in cubes], num_vars)


def _isop_bits(lower: int, upper: int, num_vars: int) -> _Cubes:
    """Minato–Morreale recursion on packed tables.

    Each step splits on the lowest variable that ``lower`` or ``upper``
    depends on, covers the negative and the positive cofactor, then the
    onset both leave uncovered.  Neither child depends on the split variable
    or on any below it, so the children's search starts one variable up.
    """
    mask = mask_for(num_vars)
    patterns = [variable_pattern(var, num_vars) for var in range(num_vars)]
    memo: Dict[Tuple[int, int], Tuple[_Cubes, int]] = {}

    def recurse(lower: int, upper: int, var: int) -> Tuple[_Cubes, int]:
        """Return the cubes and the table of the cover; no split below ``var``."""
        key = (lower, upper)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if not lower:
            result: Tuple[_Cubes, int] = ((), 0)
        elif upper == mask:
            result = (((0, 0),), mask)
        else:
            # lower <= upper and not both constant, so a split variable exists.
            while True:
                shift = 1 << var
                high = patterns[var]
                if (((lower >> shift) ^ lower) | ((upper >> shift) ^ upper)) & ~high:
                    break
                var += 1
            lower1 = lower & high
            lower1 |= lower1 >> shift
            lower0 = lower & ~high
            lower0 |= lower0 << shift
            upper1 = upper & high
            upper1 |= upper1 >> shift
            upper0 = upper & ~high
            upper0 |= upper0 << shift
            cubes0, table0 = recurse(lower0 & ~upper1, upper0, var + 1)
            cubes1, table1 = recurse(lower1 & ~upper0, upper1, var + 1)
            cubes_star, table_star = recurse(
                (lower0 & ~table0) | (lower1 & ~table1), upper0 & upper1, var + 1
            )
            bit = 1 << var
            result = (
                tuple((positive, negative | bit) for positive, negative in cubes0)
                + tuple((positive | bit, negative) for positive, negative in cubes1)
                + cubes_star,
                (table0 & ~high) | (table1 & high) | table_star,
            )
        memo[key] = result
        return result

    return recurse(lower, upper, 0)[0]
