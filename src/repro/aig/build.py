"""AIG construction from functional and structural descriptions.

The multi-function merged circuits of Phase I are defined functionally
(truth tables), so the main entry point is :func:`aig_from_function`, which
performs a Shannon (BDD-style) decomposition with cofactor memoisation: equal
sub-functions are built once, which is what gives the initial netlist its
logic sharing across the merged viable functions.

Expressions (used by the refactor pass and by examples) and mapped netlists
(for re-entry from BLIF) can also be converted.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from .._bitops import mask_for, variable_pattern
from ..logic.boolfunc import BoolFunction
from ..logic.expr import And, Const, Expression, Not, Or, Var, Xor
from ..logic.truthtable import TruthTable
from ..netlist.netlist import CONST0_NET, CONST1_NET, Netlist
from .aig import FALSE_LIT, TRUE_LIT, Aig, negate

__all__ = [
    "aig_from_tables",
    "aig_from_function",
    "aig_from_expression",
    "build_expression",
    "aig_from_netlist",
    "build_table",
]


def aig_from_tables(
    tables: Sequence[TruthTable],
    input_names: Optional[Sequence[str]] = None,
    output_names: Optional[Sequence[str]] = None,
    name: str = "aig",
) -> Aig:
    """Build an AIG computing the given output truth tables.

    All tables must share the same number of inputs.  Construction uses
    Shannon decomposition with memoisation on the cofactor truth table, so
    identical sub-functions (within one output or across outputs) are shared.
    """
    if not tables:
        raise ValueError("at least one output table is required")
    num_inputs = tables[0].num_vars
    for table in tables:
        if table.num_vars != num_inputs:
            raise ValueError("all output tables must have the same number of inputs")
    aig = Aig(name)
    input_literals = [
        aig.add_input(input_names[k] if input_names else None) for k in range(num_inputs)
    ]
    memo: Dict[int, int] = {}
    for index, table in enumerate(tables):
        literal = build_table(aig, table, input_literals, memo)
        aig.add_output(literal, output_names[index] if output_names else None)
    return aig


def build_table(
    aig: Aig,
    table: TruthTable,
    input_literals: Sequence[int],
    memo: Optional[Dict[int, int]] = None,
) -> int:
    """Build (or reuse) logic for ``table`` inside an existing AIG.

    ``input_literals[k]`` is the literal to use for table variable ``k``.
    ``memo`` maps packed table bits to already-built literals; passing the
    same dictionary across calls shares logic between outputs.
    """
    num_vars = table.num_vars
    if num_vars != len(input_literals):
        raise ValueError("one literal per table variable is required")
    if memo is None:
        memo = {}
    mask = mask_for(num_vars)
    patterns = [variable_pattern(var, num_vars) for var in range(num_vars)]

    def shannon(bits: int) -> int:
        if not bits:
            return FALSE_LIT
        if bits == mask:
            return TRUE_LIT
        cached = memo.get(bits)
        if cached is not None:
            return cached
        # Also reuse the complement when it has been built already.
        cached = memo.get(bits ^ mask)
        if cached is not None:
            memo[bits] = cached ^ 1
            return cached ^ 1
        # Split on the highest variable whose cofactors differ (a stable
        # BDD-like order); a non-constant table depends on some variable.
        var = num_vars
        positive = negative = bits
        while positive == negative:
            var -= 1
            shift = 1 << var
            kept = bits & patterns[var]
            positive = kept | kept >> shift
            kept = bits ^ kept
            negative = kept | kept << shift
        literal_pos = shannon(positive)
        literal_neg = shannon(negative)
        literal = aig.mux_(input_literals[var], literal_pos, literal_neg)
        memo[bits] = literal
        return literal

    return shannon(table.bits)


def aig_from_function(function: BoolFunction, name: Optional[str] = None) -> Aig:
    """Build an AIG from a multi-output :class:`BoolFunction`."""
    return aig_from_tables(
        function.outputs,
        input_names=function.input_names,
        output_names=function.output_names,
        name=name or function.name,
    )


def aig_from_expression(
    expression: Expression,
    variable_order: Sequence[str],
    name: str = "aig",
) -> Aig:
    """Build a single-output AIG from a Boolean expression."""
    aig = Aig(name)
    literals = {var: aig.add_input(var) for var in variable_order}
    output = build_expression(aig, expression, literals)
    aig.add_output(output, "f")
    return aig


def build_expression(
    aig: Aig, expression: Expression, variable_literals: Mapping[str, int]
) -> int:
    """Build logic for ``expression`` inside an existing AIG.

    ``variable_literals`` maps variable names to AIG literals.
    """
    if isinstance(expression, Const):
        return TRUE_LIT if expression.value else FALSE_LIT
    if isinstance(expression, Var):
        try:
            return variable_literals[expression.name]
        except KeyError as exc:
            raise KeyError(
                f"no AIG literal bound to expression variable {expression.name!r}"
            ) from exc
    if isinstance(expression, Not):
        return negate(build_expression(aig, expression.operand, variable_literals))
    if isinstance(expression, And):
        operands = [
            build_expression(aig, operand, variable_literals)
            for operand in expression.operands
        ]
        return aig.and_many(operands)
    if isinstance(expression, Or):
        operands = [
            build_expression(aig, operand, variable_literals)
            for operand in expression.operands
        ]
        return aig.or_many(operands)
    if isinstance(expression, Xor):
        operands = [
            build_expression(aig, operand, variable_literals)
            for operand in expression.operands
        ]
        result = operands[0]
        for operand in operands[1:]:
            result = aig.xor_(result, operand)
        return result
    raise TypeError(f"unsupported expression node {type(expression).__name__}")


def aig_from_netlist(netlist: Netlist, name: Optional[str] = None) -> Aig:
    """Convert a mapped netlist back into an AIG (for re-optimisation)."""
    aig = Aig(name or netlist.name)
    literals: Dict[str, int] = {CONST0_NET: FALSE_LIT, CONST1_NET: TRUE_LIT}
    for net in netlist.primary_inputs:
        literals[net] = aig.add_input(net)
    memo: Dict[int, int] = {}
    for instance in netlist.topological_order():
        cell = netlist.library[instance.cell]
        fanin_literals = [literals[net] for net in instance.inputs]
        literals[instance.output] = build_table(aig, cell.function, fanin_literals, memo={})
    for net in netlist.primary_outputs:
        aig.add_output(literals[net], net)
    return aig
