"""Tseitin encoding of circuits into CNF.

Two encoders are provided:

* :func:`encode_function` — constrain ``output literal == f(input literals)``
  for an arbitrary small truth table, using ISOP covers of the on-set and
  off-set (this is what the decamouflaging attack uses to encode each
  camouflaged cell under each candidate configuration);
* :func:`encode_netlist` — encode a mapped netlist gate by gate, returning
  the variable of every net.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..logic.isop import isop
from ..logic.truthtable import TruthTable
from ..netlist.netlist import CONST0_NET, CONST1_NET, Netlist
from .cnf import Cnf

__all__ = [
    "encode_function",
    "encode_guarded_function",
    "encode_camouflaged_copy",
    "encode_netlist",
    "equality_clauses",
    "add_exactly_one",
]


def add_exactly_one(cnf: Cnf, literals: Sequence[int]) -> None:
    """Constrain exactly one of ``literals`` to be true (pairwise encoding).

    This is the selector constraint of the decamouflaging attacks: every
    camouflaged instance is configured with exactly one plausible function.
    """
    cnf.add_clause(list(literals))
    for first, second in itertools.combinations(literals, 2):
        cnf.add_clause([-first, -second])


@lru_cache(maxsize=1024)
def _cover_cubes(num_vars: int, bits: int) -> Tuple[tuple, tuple]:
    """The ISOP cubes of a function's on-set and off-set.

    Each cube is a tuple of ``(variable, positive)`` literal pairs.  An
    attack encodes the same few cell functions once per circuit copy and
    candidate configuration, so their covers are derived once per process.
    """
    function = TruthTable(num_vars, bits)
    return (
        tuple(tuple(cube.literals()) for cube in isop(function)),
        tuple(tuple(cube.literals()) for cube in isop(~function)),
    )


def encode_guarded_function(
    cnf: Cnf,
    selector: Optional[int],
    function: TruthTable,
    input_literals: Sequence[int],
    output_literal: int,
) -> None:
    """Add clauses for ``selector -> (output_literal == function(inputs))``.

    With ``selector=None`` the equivalence is unconditional.  The inputs may
    be arbitrary literals (constants or other net variables); the guarded
    implication is expressed cube-wise from the ISOP covers of the on-set
    and off-set.  Both SAT attacks use this to encode each camouflaged cell
    under each candidate configuration.
    """
    if function.num_vars != len(input_literals):
        raise ValueError("one input literal per function variable is required")
    guard = [] if selector is None else [-selector]
    if function.is_constant_zero():
        cnf.add_clause(guard + [-output_literal])
        return
    if function.is_constant_one():
        cnf.add_clause(guard + [output_literal])
        return
    onset, offset = _cover_cubes(function.num_vars, function.bits)
    for cubes, head in ((onset, output_literal), (offset, -output_literal)):
        for cube in cubes:
            clause = guard + [head]
            for variable, positive in cube:
                literal = input_literals[variable]
                clause.append(-literal if positive else literal)
            cnf.add_clause(clause)


def encode_function(
    cnf: Cnf,
    function: TruthTable,
    input_literals: Sequence[int],
    output_literal: int,
) -> None:
    """Add clauses enforcing ``output_literal <-> function(input_literals)``.

    Constants and functions of any arity up to the practical cube-cover size
    are supported; inputs may be arbitrary literals (not just variables).
    """
    encode_guarded_function(cnf, None, function, input_literals, output_literal)


def encode_camouflaged_copy(
    cnf: Cnf,
    netlist: Netlist,
    order: Sequence,
    plausible: Mapping[str, Sequence[TruthTable]],
    selectors: Mapping,
    input_literals: Mapping[str, int],
) -> Dict[str, int]:
    """Encode one evaluation copy of a partially camouflaged netlist.

    ``order`` is the netlist's topological instance order; camouflaged
    instances (keys of ``plausible``) are encoded once per candidate
    function, guarded by ``selectors[(instance_name, candidate_index)]``,
    while ordinary instances use their library function unconditionally.
    Returns the net -> literal map of this copy (inputs included).  Shared
    by both SAT attacks, which differ only in how inputs and selectors are
    chosen per copy.
    """
    net_literal: Dict[str, int] = dict(input_literals)
    for instance in order:
        output_var = cnf.new_var()
        inputs = [net_literal[net] for net in instance.inputs]
        functions = plausible.get(instance.name)
        if functions is None:
            encode_guarded_function(
                cnf, None, netlist.library[instance.cell].function,
                inputs, output_var,
            )
        else:
            for index, function in enumerate(functions):
                encode_guarded_function(
                    cnf, selectors[(instance.name, index)], function,
                    inputs, output_var,
                )
        net_literal[instance.output] = output_var
    return net_literal


def equality_clauses(cnf: Cnf, literal_a: int, literal_b: int) -> None:
    """Add clauses enforcing ``literal_a == literal_b``."""
    cnf.add_clause([-literal_a, literal_b])
    cnf.add_clause([literal_a, -literal_b])


def encode_netlist(
    cnf: Cnf,
    netlist: Netlist,
    prefix: str = "",
    input_literals: Optional[Mapping[str, int]] = None,
    cell_functions: Optional[Mapping[str, TruthTable]] = None,
) -> Dict[str, int]:
    """Encode a netlist into the CNF; return the variable of every net.

    ``input_literals`` allows sharing primary-input variables with an
    already-encoded circuit (for miters); ``cell_functions`` overrides the
    function of individual instances, exactly like the simulator does.
    """
    net_vars: Dict[str, int] = {}

    constant_true = cnf.new_var(f"{prefix}const1" if prefix else None)
    cnf.add_clause([constant_true])
    net_vars[CONST1_NET] = constant_true
    net_vars[CONST0_NET] = -constant_true

    for net in netlist.primary_inputs:
        if input_literals is not None and net in input_literals:
            net_vars[net] = input_literals[net]
        else:
            net_vars[net] = cnf.new_var(f"{prefix}{net}" if prefix else None)

    for instance in netlist.topological_order():
        function = None
        if cell_functions is not None:
            function = cell_functions.get(instance.name)
        if function is None:
            function = netlist.library[instance.cell].function
        output_var = cnf.new_var(f"{prefix}{instance.output}" if prefix else None)
        net_vars[instance.output] = output_var
        inputs = [net_vars[net] for net in instance.inputs]
        encode_function(cnf, function, inputs, output_var)

    for net in netlist.primary_outputs:
        if net not in net_vars:
            raise ValueError(f"primary output {net!r} is undriven")
    return net_vars
