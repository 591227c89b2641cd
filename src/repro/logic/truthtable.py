"""Single-output Boolean functions represented as packed truth tables.

A :class:`TruthTable` is an immutable value object describing a Boolean
function of ``num_vars`` inputs.  The table is packed into a Python integer:
bit ``r`` is the value of the function on the minterm whose index is ``r``,
with variable 0 occupying the least-significant bit of the minterm index.

This representation makes the Boolean connectives trivial bitwise operations
and keeps cofactoring, support analysis and composition cheap for the block
sizes that matter in this project (4 to about 12 inputs).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .._bitops import (
    bit_at,
    mask_for,
    popcount,
    variable_pattern,
)

__all__ = ["TruthTable"]

#: Shared projection-function tables, keyed by ``(var, num_vars)``.  Variable
#: tables are requested extremely often (every cut-function and subtree
#: evaluation starts from them) and :class:`TruthTable` is immutable, so the
#: instances can be shared freely.  The bound keeps pathological workloads
#: from growing the cache without limit.
_VARIABLE_CACHE: dict = {}
_VARIABLE_CACHE_LIMIT = 4096


class TruthTable:
    """An immutable Boolean function of ``num_vars`` inputs."""

    __slots__ = ("_bits", "_num_vars")

    def __init__(self, num_vars: int, bits: int):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        mask = mask_for(num_vars)
        if bits < 0:
            raise ValueError("bits must be a non-negative integer")
        if bits > mask:
            raise ValueError(
                f"truth table value 0x{bits:x} does not fit {1 << num_vars} rows"
            )
        self._bits = bits
        self._num_vars = num_vars

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(cls, num_vars: int, value: bool) -> "TruthTable":
        """Return the constant-0 or constant-1 function on ``num_vars`` inputs."""
        return cls(num_vars, mask_for(num_vars) if value else 0)

    @classmethod
    def variable(cls, var: int, num_vars: int) -> "TruthTable":
        """Return the projection function ``x_var`` on ``num_vars`` inputs.

        Instances are memoised (tables are immutable), which removes the
        repeated pattern construction from the cut-enumeration hot path.
        """
        key = (var, num_vars)
        cached = _VARIABLE_CACHE.get(key)
        if cached is None:
            cached = cls(num_vars, variable_pattern(var, num_vars))
            if len(_VARIABLE_CACHE) < _VARIABLE_CACHE_LIMIT:
                _VARIABLE_CACHE[key] = cached
        return cached

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "TruthTable":
        """Build a table from an explicit list of 0/1 output values.

        ``values[r]`` is the output for minterm ``r``; the length must be a
        power of two.
        """
        length = len(values)
        if length == 0 or length & (length - 1):
            raise ValueError("number of rows must be a non-zero power of two")
        num_vars = length.bit_length() - 1
        bits = 0
        for row, value in enumerate(values):
            if value not in (0, 1, True, False):
                raise ValueError("truth table values must be 0 or 1")
            if value:
                bits |= 1 << row
        return cls(num_vars, bits)

    @classmethod
    def from_minterms(cls, num_vars: int, minterms: Iterable[int]) -> "TruthTable":
        """Build a table that is 1 exactly on the listed minterm indices."""
        bits = 0
        rows = 1 << num_vars
        for minterm in minterms:
            if not 0 <= minterm < rows:
                raise ValueError(f"minterm {minterm} out of range for {num_vars} inputs")
            bits |= 1 << minterm
        return cls(num_vars, bits)

    @classmethod
    def from_function(cls, num_vars: int, func: Callable[..., int]) -> "TruthTable":
        """Build a table by evaluating ``func`` on every input combination.

        ``func`` receives ``num_vars`` positional 0/1 arguments, variable 0
        first.
        """
        bits = 0
        for row in range(1 << num_vars):
            arguments = [(row >> var) & 1 for var in range(num_vars)]
            if func(*arguments):
                bits |= 1 << row
        return cls(num_vars, bits)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_vars(self) -> int:
        """Number of input variables."""
        return self._num_vars

    @property
    def bits(self) -> int:
        """The packed table as an integer."""
        return self._bits

    @property
    def num_rows(self) -> int:
        """Number of rows, ``2 ** num_vars``."""
        return 1 << self._num_vars

    def value_at(self, minterm: int) -> int:
        """Return the function value (0/1) for the given minterm index."""
        if not 0 <= minterm < self.num_rows:
            raise ValueError(f"minterm {minterm} out of range")
        return bit_at(self._bits, minterm)

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Evaluate on an explicit assignment (``assignment[i]`` is variable i)."""
        if len(assignment) != self._num_vars:
            raise ValueError(
                f"expected {self._num_vars} input values, got {len(assignment)}"
            )
        row = 0
        for var, value in enumerate(assignment):
            if value:
                row |= 1 << var
        return bit_at(self._bits, row)

    def values(self) -> List[int]:
        """Return the output column as a list of 0/1 values."""
        return [bit_at(self._bits, row) for row in range(self.num_rows)]

    def minterms(self) -> List[int]:
        """Return the list of minterm indices on which the function is 1."""
        return [row for row in range(self.num_rows) if bit_at(self._bits, row)]

    def count_ones(self) -> int:
        """Return the number of minterms mapped to 1."""
        return popcount(self._bits)

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    def is_constant(self) -> bool:
        """Return True if the function is constant 0 or constant 1."""
        return self._bits == 0 or self._bits == mask_for(self._num_vars)

    def is_constant_zero(self) -> bool:
        """Return True for the constant-0 function."""
        return self._bits == 0

    def is_constant_one(self) -> bool:
        """Return True for the constant-1 function."""
        return self._bits == mask_for(self._num_vars)

    def depends_on(self, var: int) -> bool:
        """Return True if the function depends on variable ``var``."""
        return self.cofactor(var, 0) != self.cofactor(var, 1)

    def support(self) -> Tuple[int, ...]:
        """Return the tuple of variable indices the function depends on."""
        return tuple(var for var in range(self._num_vars) if self.depends_on(var))

    # ------------------------------------------------------------------ #
    # Boolean connectives
    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: "TruthTable") -> None:
        if not isinstance(other, TruthTable):
            raise TypeError("operand must be a TruthTable")
        if other._num_vars != self._num_vars:
            raise ValueError("operands must have the same number of inputs")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self._num_vars, self._bits & other._bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self._num_vars, self._bits | other._bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self._num_vars, self._bits ^ other._bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self._num_vars, self._bits ^ mask_for(self._num_vars))

    def implies(self, other: "TruthTable") -> bool:
        """Return True if this function implies ``other`` (containment of on-sets)."""
        self._check_compatible(other)
        return (self._bits & ~other._bits) == 0

    # ------------------------------------------------------------------ #
    # Cofactors, quantification, composition
    # ------------------------------------------------------------------ #
    def cofactor(self, var: int, value: int) -> "TruthTable":
        """Return the cofactor with variable ``var`` fixed to ``value``.

        The result is still expressed over the original ``num_vars`` inputs
        (it simply no longer depends on ``var``), which keeps chained
        cofactoring simple.
        """
        if not 0 <= var < self._num_vars:
            raise ValueError(f"variable index {var} out of range")
        pattern = variable_pattern(var, self._num_vars)
        if value:
            kept = self._bits & pattern
            shifted = kept >> (1 << var)
            bits = kept | shifted
        else:
            kept = self._bits & ~pattern
            shifted = (kept << (1 << var)) & mask_for(self._num_vars)
            bits = kept | shifted
        return TruthTable(self._num_vars, bits)

    def restrict(self, assignment: dict) -> "TruthTable":
        """Apply several cofactors at once; ``assignment`` maps var -> 0/1."""
        table = self
        for var, value in assignment.items():
            table = table.cofactor(var, value)
        return table

    def exists(self, var: int) -> "TruthTable":
        """Existentially quantify variable ``var``."""
        return self.cofactor(var, 0) | self.cofactor(var, 1)

    def forall(self, var: int) -> "TruthTable":
        """Universally quantify variable ``var``."""
        return self.cofactor(var, 0) & self.cofactor(var, 1)

    def permute_inputs(self, permutation: Sequence[int]) -> "TruthTable":
        """Return the function with inputs relabelled by ``permutation``.

        ``permutation[i] = j`` means old variable ``i`` becomes new variable
        ``j``; i.e. ``result(x_{perm[0]}, ..)`` reads its old input ``i`` from
        new position ``j``.
        """
        if sorted(permutation) != list(range(self._num_vars)):
            raise ValueError("permutation must be a permutation of the input indices")
        bits = 0
        for row in range(self.num_rows):
            if not bit_at(self._bits, row):
                continue
            new_row = 0
            for old_var in range(self._num_vars):
                if (row >> old_var) & 1:
                    new_row |= 1 << permutation[old_var]
            bits |= 1 << new_row
        return TruthTable(self._num_vars, bits)

    def negate_input(self, var: int) -> "TruthTable":
        """Return the function with input ``var`` complemented."""
        if not 0 <= var < self._num_vars:
            raise ValueError(f"variable index {var} out of range")
        bits = 0
        for row in range(self.num_rows):
            if bit_at(self._bits, row):
                bits |= 1 << (row ^ (1 << var))
        return TruthTable(self._num_vars, bits)

    def extend(self, num_vars: int) -> "TruthTable":
        """Re-express the function over a larger variable set (new vars unused)."""
        if num_vars < self._num_vars:
            raise ValueError("cannot extend to fewer variables")
        bits = self._bits
        current = self._num_vars
        while current < num_vars:
            bits = bits | (bits << (1 << current))
            current += 1
        return TruthTable(num_vars, bits)

    def shrink_to_support(self) -> Tuple["TruthTable", Tuple[int, ...]]:
        """Project onto the support variables.

        Returns the reduced table together with the tuple of original
        variable indices that became the new variables (in order).
        """
        support = self.support()
        reduced_vars = len(support)
        bits = 0
        for new_row in range(1 << reduced_vars):
            old_row = 0
            for new_var, old_var in enumerate(support):
                if (new_row >> new_var) & 1:
                    old_row |= 1 << old_var
            if bit_at(self._bits, old_row):
                bits |= 1 << new_row
        return TruthTable(reduced_vars, bits), support

    def compose(self, substitutions: Sequence["TruthTable"]) -> "TruthTable":
        """Substitute a function for every input variable.

        ``substitutions[i]`` replaces variable ``i``; all substitutions must
        share the same number of variables, which becomes the arity of the
        result.
        """
        if len(substitutions) != self._num_vars:
            raise ValueError("one substitution per input variable is required")
        if self._num_vars == 0:
            # A constant stays a constant; arity is taken from context (0).
            return TruthTable(0, self._bits & 1)
        target_vars = substitutions[0].num_vars
        for sub in substitutions:
            if sub.num_vars != target_vars:
                raise ValueError("all substitutions must have the same arity")
        result_bits = 0
        target_mask = mask_for(target_vars)
        for row in range(self.num_rows):
            if not bit_at(self._bits, row):
                continue
            term = target_mask
            for var in range(self._num_vars):
                sub_bits = substitutions[var].bits
                if (row >> var) & 1:
                    term &= sub_bits
                else:
                    term &= sub_bits ^ target_mask
            result_bits |= term
        return TruthTable(target_vars, result_bits)

    # ------------------------------------------------------------------ #
    # Cofactor family (camouflage plausible-function generation)
    # ------------------------------------------------------------------ #
    def all_partial_cofactors(self) -> List["TruthTable"]:
        """Return every cofactor under every partial assignment of the inputs.

        The original function (empty assignment) is included.  This is the
        plausible-function family of a dopant-programmable camouflaged cell
        whose nominal function is this table (see Fig. 1b of the paper).
        """
        seen = {}
        frontier = [self]
        seen[(self._num_vars, self._bits)] = self
        while frontier:
            table = frontier.pop()
            for var in range(self._num_vars):
                if not table.depends_on(var):
                    continue
                for value in (0, 1):
                    cof = table.cofactor(var, value)
                    key = (cof._num_vars, cof._bits)
                    if key not in seen:
                        seen[key] = cof
                        frontier.append(cof)
        return list(seen.values())

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self._num_vars == other._num_vars and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._num_vars, self._bits))

    def __repr__(self) -> str:
        width = max(1, (self.num_rows + 3) // 4)
        return f"TruthTable(num_vars={self._num_vars}, bits=0x{self._bits:0{width}x})"

    def to_binary_string(self) -> str:
        """Return the output column as a binary string, minterm 0 first."""
        return "".join(str(bit_at(self._bits, row)) for row in range(self.num_rows))
