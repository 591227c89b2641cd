"""SAT substrate: CNF, CDCL solver, Tseitin encoding, equivalence checking."""

from .cnf import Cnf
from .equivalence import (
    EquivalenceResult,
    EquivalenceChecker,
    check_netlist_equivalence,
    check_netlist_function,
)
from .solver import (
    BUDGET_ENV_VAR,
    SatResult,
    SatSolver,
    SolveBudget,
    SolveBudgetExceeded,
    solve,
)
from .tseitin import encode_function, encode_netlist, equality_clauses

__all__ = [
    "Cnf",
    "SatSolver",
    "SatResult",
    "SolveBudget",
    "SolveBudgetExceeded",
    "solve",
    "BUDGET_ENV_VAR",
    "encode_function",
    "encode_netlist",
    "equality_clauses",
    "EquivalenceResult",
    "EquivalenceChecker",
    "check_netlist_equivalence",
    "check_netlist_function",
]
