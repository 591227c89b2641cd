"""Miter-based combinational equivalence checking with a fuzz fast path.

Used to validate that synthesis and technology mapping preserve function
(the role ModelSim plays in the paper's Section IV) and as a building block
of the SAT-based adversary in :mod:`repro.attacks.decamouflage`.

Two entry points are one-shot functions (:func:`check_netlist_equivalence`,
:func:`check_netlist_function`); :class:`EquivalenceChecker` is the reusable
variant: it encodes a netlist **once** into a persistent incremental solver
and checks it against any number of candidate functions, each behind a
fresh activation literal.  The activation literal guards the "some output
differs" miter clause, so a finished check is retired with one permanent
unit clause and its learned clauses keep benefiting later checks.

Fuzz-before-SAT
---------------

With the pre-filter enabled (the default; pass ``prefilter=False`` to opt
out), every check first runs a packed word-parallel simulation pass
(:mod:`repro.sim.prefilter`): exhaustive — and therefore a *complete
decision* — for small input counts, otherwise replay-buffer words followed
by seeded random patterns.  A mismatch refutes the check with a
genuine counterexample and the solver is never consulted (the checker even
defers Tseitin-encoding the netlist until the first SAT fallback actually
needs it); counterexamples found by either path feed the shared replay
buffer so later checks re-try the killer patterns first.  Verdicts are
identical with the pre-filter on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..logic.boolfunc import BoolFunction
from ..logic.truthtable import TruthTable
from ..netlist.netlist import Netlist
from ..sim.prefilter import fuzz_netlist_vs_function, fuzz_netlist_vs_netlist
from ..sim.patterns import ReplayBuffer
from .cnf import Cnf
from .solver import SatSolver, SolveBudget, SolveBudgetExceeded
from .tseitin import encode_function, encode_netlist

__all__ = [
    "EquivalenceResult",
    "add_difference_miter",
    "EquivalenceChecker",
    "check_netlist_equivalence",
    "check_netlist_function",
]

# An equivalence verdict feeds verification decisions that are *persisted*
# (stitched-netlist checks, campaign artifacts), so an UNKNOWN solver result
# must never be coerced into "not equivalent".  Every check solves under
# REPRO_SOLVE_BUDGET and raises SolveBudgetExceeded when it runs out; callers
# either escalate the budget or let the campaign layer classify the failure
# as transient and retry.


def _raise_budget_exceeded(context: str) -> None:
    raise SolveBudgetExceeded(
        f"{context} exhausted its solve budget before reaching a verdict"
    )


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    counterexample: Optional[Dict[str, int]] = None
    #: True when the verdict came from the simulation pre-filter (no SAT).
    by_simulation: bool = False

    def __bool__(self) -> bool:
        return self.equivalent


def add_difference_miter(
    cnf: Cnf, pairs: List[Tuple[int, int]], activation: Optional[int] = None
) -> None:
    """Constrain that at least one output pair differs.

    With an ``activation`` literal the difference constraint only applies
    while that literal is assumed true, which lets several miters share one
    incremental solver.
    """
    difference_literals = [] if activation is None else [-activation]
    for literal_a, literal_b in pairs:
        diff = cnf.new_var()
        # diff -> (a xor b)  and  (a xor b) -> diff
        cnf.add_clause([-diff, literal_a, literal_b])
        cnf.add_clause([-diff, -literal_a, -literal_b])
        cnf.add_clause([diff, -literal_a, literal_b])
        cnf.add_clause([diff, literal_a, -literal_b])
        difference_literals.append(diff)
    cnf.add_clause(difference_literals)


def _word_counterexample(netlist: Netlist, word: int) -> Dict[str, int]:
    """Express a counterexample input word as a net -> value mapping."""
    return {
        net: (word >> index) & 1
        for index, net in enumerate(netlist.primary_inputs)
    }


class EquivalenceChecker:
    """Reusable miter checker: one netlist, many candidate functions.

    The netlist is Tseitin-encoded once (lazily, on the first check the
    fuzz pre-filter cannot decide) into a persistent incremental solver.
    Every :meth:`check_function` call encodes only the candidate's reference
    outputs plus an activation-guarded miter, solves under the activation
    assumption, and then permanently disables that miter — the circuit
    encoding and everything learned about it are shared across checks.
    The solve budget is ``REPRO_SOLVE_BUDGET``, read once here.
    """

    def __init__(
        self,
        netlist: Netlist,
        cell_functions: Optional[Mapping[str, TruthTable]] = None,
        prefilter: bool = True,
    ):
        self._netlist = netlist
        self._cell_functions = dict(cell_functions) if cell_functions else None
        self._budget = SolveBudget.from_environment()
        self._prefilter = prefilter
        self._replay = ReplayBuffer()
        self._simulator = None
        #: Cached exhaustive output lanes (candidate-independent, small n).
        self._exhaustive_lanes: Optional[List[int]] = None
        self._cnf: Optional[Cnf] = None
        self._solver: Optional[SatSolver] = None
        self._net_vars: Dict[str, int] = {}
        self._input_literals: List[int] = []
        self._checks = 0
        self._fuzz_refutations = 0
        self._fuzz_proofs = 0

    def _ensure_encoded(self) -> SatSolver:
        if self._solver is not None:
            return self._solver
        self._cnf = Cnf()
        self._solver = SatSolver(self._cnf, follow=True)
        self._net_vars = encode_netlist(
            self._cnf, self._netlist, prefix="n.", cell_functions=self._cell_functions
        )
        self._input_literals = [
            self._net_vars[net] for net in self._netlist.primary_inputs
        ]
        return self._solver

    def _fuzz(self, function: BoolFunction):
        from ..sim.engine import NetlistSimulator
        from ..sim.patterns import PatternBatch
        from ..sim.prefilter import FUZZ_EXHAUSTIVE_LIMIT

        if self._simulator is None:
            self._simulator = NetlistSimulator(
                self._netlist, cell_functions=self._cell_functions
            )
        num_inputs = len(self._netlist.primary_inputs)
        if num_inputs <= FUZZ_EXHAUSTIVE_LIMIT and self._exhaustive_lanes is None:
            # The exhaustive lanes are candidate-independent: simulate once,
            # then every later check is a handful of XOR/compare operations.
            self._exhaustive_lanes = self._simulator.output_lanes(
                PatternBatch.exhaustive(num_inputs)
            )
        return fuzz_netlist_vs_function(
            self._netlist,
            function,
            seed=1 + self._checks,
            replay=self._replay,
            simulator=self._simulator,
            exhaustive_lanes=self._exhaustive_lanes,
        )

    def check_function(self, function: BoolFunction) -> EquivalenceResult:
        """Check that the netlist implements ``function`` (pin-by-position)."""
        netlist = self._netlist
        if len(netlist.primary_inputs) != function.num_inputs:
            raise ValueError("netlist and function have different numbers of inputs")
        if len(netlist.primary_outputs) != function.num_outputs:
            raise ValueError("netlist and function have different numbers of outputs")

        self._checks += 1
        if self._prefilter:
            outcome = self._fuzz(function)
            if outcome.refuted:
                self._fuzz_refutations += 1
                return EquivalenceResult(
                    False,
                    counterexample=_word_counterexample(netlist, outcome.counterexample),
                    by_simulation=True,
                )
            if outcome.proven:
                self._fuzz_proofs += 1
                return EquivalenceResult(True, by_simulation=True)

        solver = self._ensure_encoded()
        activation = self._cnf.new_var(f"miter.enable.{self._checks}")
        pairs: List[Tuple[int, int]] = []
        for index, net in enumerate(netlist.primary_outputs):
            reference = self._cnf.new_var(f"ref.{self._checks}.o{index}")
            encode_function(self._cnf, function.output(index), self._input_literals,
                            reference)
            pairs.append((self._net_vars[net], reference))
        add_difference_miter(self._cnf, pairs, activation=activation)

        result = solver.solve(assumptions=[activation], budget=self._budget)
        # Retire this miter; later checks must not be forced to differ here.
        self._cnf.add_clause([-activation])
        if result.unknown:
            _raise_budget_exceeded("equivalence check (netlist vs function)")
        if not result.satisfiable:
            return EquivalenceResult(True)
        counterexample = {}
        word = 0
        for index, net in enumerate(netlist.primary_inputs):
            value = int(result.model.get(abs(self._net_vars[net]), False))
            counterexample[net] = value
            word |= value << index
        self._replay.add(word)
        return EquivalenceResult(False, counterexample=counterexample)

    def solver_stats(self) -> Dict[str, int]:
        """Cumulative statistics of the persistent solver.

        Includes the pre-filter counters; the solver-side entries are zero
        until a check actually falls back to SAT (the encoding is lazy), so
        every key is always present.
        """
        stats: Dict[str, int] = {
            "solve_calls": 0,
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "num_vars": 0,
            "num_clauses": 0,
            "learned_clauses": 0,
        }
        if self._solver is not None:
            stats.update(self._solver.stats())
        stats["fuzz_refutations"] = self._fuzz_refutations
        stats["fuzz_proofs"] = self._fuzz_proofs
        return stats


def check_netlist_equivalence(
    netlist_a: Netlist,
    netlist_b: Netlist,
    cell_functions_a: Optional[Mapping[str, TruthTable]] = None,
    cell_functions_b: Optional[Mapping[str, TruthTable]] = None,
    prefilter: bool = True,
) -> EquivalenceResult:
    """Check that two netlists implement the same function.

    Primary inputs are matched by position, as are primary outputs; the two
    netlists must have the same interface sizes.  With the fuzz pre-filter
    enabled, a packed simulation pass over a shared pattern batch refutes
    (or, for small input counts, fully decides) the check before any CNF is
    built.  The miter solves under ``REPRO_SOLVE_BUDGET`` and raises
    :class:`SolveBudgetExceeded` when the budget runs out.
    """
    if len(netlist_a.primary_inputs) != len(netlist_b.primary_inputs):
        raise ValueError("netlists have different numbers of primary inputs")
    if len(netlist_a.primary_outputs) != len(netlist_b.primary_outputs):
        raise ValueError("netlists have different numbers of primary outputs")

    if prefilter:
        outcome = fuzz_netlist_vs_netlist(
            netlist_a, netlist_b, cell_functions_a, cell_functions_b
        )
        if outcome.refuted:
            return EquivalenceResult(
                False,
                counterexample=_word_counterexample(netlist_a, outcome.counterexample),
                by_simulation=True,
            )
        if outcome.proven:
            return EquivalenceResult(True, by_simulation=True)

    cnf = Cnf()
    vars_a = encode_netlist(cnf, netlist_a, prefix="a.", cell_functions=cell_functions_a)
    shared_inputs = {
        net_b: vars_a[net_a]
        for net_a, net_b in zip(netlist_a.primary_inputs, netlist_b.primary_inputs)
    }
    vars_b = encode_netlist(
        cnf, netlist_b, prefix="b.", input_literals=shared_inputs,
        cell_functions=cell_functions_b,
    )
    pairs = [
        (vars_a[net_a], vars_b[net_b])
        for net_a, net_b in zip(netlist_a.primary_outputs, netlist_b.primary_outputs)
    ]
    add_difference_miter(cnf, pairs)

    result = SatSolver(cnf).solve(budget=SolveBudget.from_environment())
    if result.unknown:
        _raise_budget_exceeded("equivalence check (netlist vs netlist)")
    if not result.satisfiable:
        return EquivalenceResult(True)
    counterexample = {
        net: int(result.model.get(abs(vars_a[net]), False))
        for net in netlist_a.primary_inputs
    }
    return EquivalenceResult(False, counterexample=counterexample)


def check_netlist_function(
    netlist: Netlist,
    function: BoolFunction,
    cell_functions: Optional[Mapping[str, TruthTable]] = None,
    prefilter: bool = True,
) -> EquivalenceResult:
    """Check that a netlist implements a given multi-output function.

    Netlist primary input ``k`` corresponds to function variable ``k`` and
    primary output ``k`` to function output ``k``.  One-shot wrapper around
    :class:`EquivalenceChecker`; ``prefilter`` enables the fuzz-before-SAT
    fast path.  It raises :class:`SolveBudgetExceeded` when the verdict
    cannot be reached within ``REPRO_SOLVE_BUDGET``.
    """
    return EquivalenceChecker(
        netlist, cell_functions=cell_functions, prefilter=prefilter
    ).check_function(function)
