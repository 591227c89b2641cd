"""Low-level bit-manipulation helpers shared across the library.

Truth tables throughout :mod:`repro` are stored as Python integers used as
bit vectors: bit ``r`` of the integer holds the function value for the input
minterm whose index is ``r`` (variable 0 is the least-significant bit of the
minterm index).  These helpers centralise the bit tricks used to manipulate
such packed tables.
"""

from __future__ import annotations

__all__ = [
    "mask_for",
    "popcount",
    "bit_at",
    "variable_pattern",
    "parity",
]


def mask_for(num_vars: int) -> int:
    """Return the all-ones mask covering the ``2**num_vars`` rows of a table."""
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    return (1 << (1 << num_vars)) - 1


def popcount(value: int) -> int:
    """Return the number of set bits in ``value`` (which must be >= 0)."""
    if value < 0:
        raise ValueError("popcount is only defined for non-negative integers")
    return value.bit_count()


def bit_at(value: int, position: int) -> int:
    """Return bit ``position`` of ``value`` as 0 or 1."""
    return (value >> position) & 1


def variable_pattern(var: int, num_vars: int) -> int:
    """Return the truth table (packed int) of projection ``x_var`` on ``num_vars`` inputs.

    Bit ``r`` of the result is the value of variable ``var`` in minterm ``r``.
    For example ``variable_pattern(0, 2) == 0b1010`` and
    ``variable_pattern(1, 2) == 0b1100``.
    """
    if not 0 <= var < num_vars:
        raise ValueError(f"variable index {var} out of range for {num_vars} inputs")
    rows = 1 << num_vars
    block = 1 << var  # run length of identical values of x_var
    # One period (2*block rows: zeros then ones), then double the covered
    # span until it spans all rows — O(num_vars) big-int operations instead
    # of one OR per period, which matters enormously for wide exhaustive
    # batches (2**20+ rows) where low-index variables have millions of
    # periods.
    pattern = ((1 << block) - 1) << block
    size = 2 * block
    while size < rows:
        pattern |= pattern << size
        size *= 2
    return pattern


def parity(value: int) -> int:
    """Return the parity (XOR of all bits) of ``value``."""
    return popcount(value) & 1
