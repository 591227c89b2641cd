"""Attacker-side analysis: which candidate functions are plausible?

The adversary of the paper images the die, recognises every (look-alike)
cell and its connections, and knows the plausible-function family of each
camouflaged cell — but not which member is actually implemented.  For a
candidate function ``f`` from her pre-existing list of viable functions she
asks: *is there an assignment of plausible functions to the camouflaged
instances that makes the circuit implement ``f``?*  This is the QBF-style
query of the paper (reference [14]) specialised to combinational blocks with
a handful of inputs, which lets us unroll the universal quantification over
the inputs and answer it with a single SAT call.

The oracle is incremental: the configuration selectors and the circuit
unrolled over every input word are encoded **once** into a persistent
:class:`~repro.sat.solver.SatSolver`, and each candidate query is a
``solve(assumptions=...)`` call that pins the unrolled output literals to
the candidate's truth table.  Learned clauses about the circuit structure
are therefore shared across all candidate checks, and witness enumeration
(:meth:`PlausibleFunctionOracle.enumerate_witnesses`) adds blocking clauses
guarded by a per-session activation literal to the same solver.

Fuzz-before-SAT: with the pre-filter enabled (the default; pass
``prefilter=False`` to opt out), a query is answered by simulation-guided
abstraction refinement instead of the full unrolling:

1. a three-valued packed *possibility* pass (:func:`repro.sim.prefilter.
   possibility_refute`) soundly refutes candidates that need an output bit
   no combination of plausible functions can achieve;
2. surviving candidates enter a CEGAR loop over a **lazily unrolled** word
   set: the solver is asked for a configuration consistent with the words
   encoded so far, the model configuration is checked against the whole
   input space with one packed word-parallel simulation pass, and the
   mismatching words — the counterexamples — are added to the encoding.
   ``UNSAT`` on a subset of the words already proves implausibility, and a
   simulation-verified model is an exact witness, so verdicts are identical
   to the eager encoding while typically touching a small fraction of the
   input space.

Counterexample words persist across queries of one oracle (they are simply
the encoded words), so each candidate is first confronted with the patterns
that killed its predecessors — the replay-buffer discipline of classic SAT
sweeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..logic.boolfunc import BoolFunction
from ..logic.truthtable import TruthTable
from ..netlist.netlist import CONST0_NET, CONST1_NET, Netlist
from ..sat.cnf import Cnf
from ..sat.solver import SatResult, SatSolver, SolveBudget, SolveBudgetExceeded
from ..sat.tseitin import add_exactly_one, encode_camouflaged_copy
from ..sim.engine import NetlistSimulator
from ..sim.patterns import PatternBatch
from ..sim.prefilter import PossibilityAnalysis
from ..techmap.mapper import CamouflagedMapping

__all__ = ["DecamouflageResult", "PlausibleFunctionOracle"]


@dataclass
class DecamouflageResult:
    """Result of one plausibility query."""

    plausible: bool
    #: When plausible, a witness configuration: instance name -> configured function.
    witness: Dict[str, TruthTable] = field(default_factory=dict)
    conflicts: int = 0

    def __bool__(self) -> bool:
        return self.plausible


class PlausibleFunctionOracle:
    """SAT-based oracle answering "can this circuit implement function f?".

    The oracle is built once per camouflaged netlist; the circuit is
    unrolled over all input words with the per-instance configuration
    variables shared across the unrolled copies.  The encoding lives in one
    persistent incremental solver, and each query merely assumes the output
    literals of every word to match the candidate function.  Every solve
    runs under ``REPRO_SOLVE_BUDGET``, read once here.
    """

    def __init__(
        self,
        netlist: Netlist,
        instance_plausible: Mapping[str, Sequence[TruthTable]],
        prefilter: bool = True,
    ):
        self._netlist = netlist
        self._budget = SolveBudget.from_environment()
        self._plausible = {
            name: list(dict.fromkeys(functions))
            for name, functions in instance_plausible.items()
        }
        for name, functions in self._plausible.items():
            if not functions:
                raise ValueError(f"instance {name!r} has an empty plausible set")
        self._cnf: Optional[Cnf] = None
        self._solver: Optional[SatSolver] = None
        self._true_var: Optional[int] = None
        self._selector_vars: Dict[Tuple[str, int], int] = {}
        self._order = None
        #: Per encoded input word, the literal of every primary output of
        #: that unrolled copy (insertion-ordered; the eager path encodes all
        #: words 0..2**n-1 up front, the CEGAR path grows it lazily).
        self._word_outputs: Dict[int, List[int]] = {}
        self._prefilter = prefilter
        self._simulator: Optional[NetlistSimulator] = None
        #: Cached three-valued achievability maps (candidate-independent).
        self._possibility: Optional[PossibilityAnalysis] = None
        self._prefilter_counters = {
            "queries": 0,
            "possibility_refutations": 0,
            "cegar_rounds": 0,
            "cegar_verdicts": 0,
            "words_encoded": 0,
        }

    @classmethod
    def from_mapping(
        cls, mapping: CamouflagedMapping, prefilter: bool = True
    ) -> "PlausibleFunctionOracle":
        """Build the oracle an adversary would build from a mapped design."""
        plausible = {
            name: list(mapping.plausible_functions_of(name))
            for name in mapping.camouflaged_instances()
        }
        return cls(mapping.netlist, plausible, prefilter=prefilter)

    def _solve(self, assumptions: Sequence[int]) -> SatResult:
        """Budgeted solve; a plausibility verdict must never be guessed, so
        an UNKNOWN result raises instead of masquerading as "implausible"."""
        result = self._solver.solve(assumptions, budget=self._budget)
        if result.unknown:
            raise SolveBudgetExceeded(
                "plausibility query exhausted its solve budget before reaching "
                "a verdict"
            )
        return result

    # -------------------------------------------------------------- #
    # Encoding (lazily: the base once, words eagerly or on demand)
    # -------------------------------------------------------------- #
    def _ensure_base(self) -> SatSolver:
        """Create the solver with the per-instance selector constraints."""
        if self._solver is not None:
            return self._solver
        cnf = Cnf()
        solver = SatSolver(cnf, follow=True)
        self._true_var = cnf.new_var("const.true")
        cnf.add_clause([self._true_var])

        for name, functions in self._plausible.items():
            literals = []
            for index in range(len(functions)):
                variable = cnf.new_var(f"cfg.{name}.{index}")
                self._selector_vars[(name, index)] = variable
                literals.append(variable)
            # Exactly one configuration per camouflaged instance.
            add_exactly_one(cnf, literals)

        self._order = self._netlist.topological_order()
        self._cnf = cnf
        self._solver = solver
        return solver

    def _encode_word(self, word: int) -> None:
        """Unroll the circuit at one input word (idempotent)."""
        if word in self._word_outputs:
            return
        netlist = self._netlist
        inputs: Dict[str, int] = {
            CONST1_NET: self._true_var,
            CONST0_NET: -self._true_var,
        }
        for position, net in enumerate(netlist.primary_inputs):
            value = (word >> position) & 1
            inputs[net] = self._true_var if value else -self._true_var
        net_literal = encode_camouflaged_copy(
            self._cnf, netlist, self._order, self._plausible, self._selector_vars,
            inputs,
        )
        self._word_outputs[word] = [
            net_literal[net] for net in netlist.primary_outputs
        ]
        self._prefilter_counters["words_encoded"] += 1

    def _ensure_encoded(self) -> SatSolver:
        """Eager path: the base plus every input word, encoded once."""
        solver = self._ensure_base()
        num_inputs = len(self._netlist.primary_inputs)
        if len(self._word_outputs) < (1 << num_inputs):
            for word in range(1 << num_inputs):
                self._encode_word(word)
        return solver

    def _validate_candidate(self, candidate: BoolFunction) -> None:
        netlist = self._netlist
        if candidate.num_inputs != len(netlist.primary_inputs):
            raise ValueError(
                f"candidate has {candidate.num_inputs} inputs, circuit has "
                f"{len(netlist.primary_inputs)}"
            )
        if candidate.num_outputs != len(netlist.primary_outputs):
            raise ValueError("candidate and circuit have different numbers of outputs")

    def _assumptions_for_words(self, candidate: BoolFunction) -> List[int]:
        """Output-pinning assumptions over the currently encoded words."""
        assumptions: List[int] = []
        for word, output_literals in self._word_outputs.items():
            expected = candidate.evaluate_word(word)
            for position, literal in enumerate(output_literals):
                assumptions.append(
                    literal if (expected >> position) & 1 else -literal
                )
        return assumptions

    def _candidate_assumptions(self, candidate: BoolFunction) -> List[int]:
        """Output-pinning assumptions encoding ``circuit == candidate``."""
        self._validate_candidate(candidate)
        self._ensure_encoded()
        return self._assumptions_for_words(candidate)

    def _model_witness(self, model: Dict[int, bool]) -> Dict[str, TruthTable]:
        witness: Dict[str, TruthTable] = {}
        for (name, index), variable in self._selector_vars.items():
            if model.get(variable, False):
                witness[name] = self._plausible[name][index]
        return witness

    # -------------------------------------------------------------- #
    # Queries
    # -------------------------------------------------------------- #
    def is_plausible(self, candidate: BoolFunction) -> DecamouflageResult:
        """Can the camouflaged circuit implement the candidate function?

        With the pre-filter enabled the query runs the simulation-guided
        CEGAR loop (possibility refutation, then lazily unrolled words with
        packed model verification); otherwise the circuit is eagerly
        unrolled over every word and answered with one solver call.
        Verdicts are identical either way.
        """
        self._validate_candidate(candidate)
        self._prefilter_counters["queries"] += 1
        if self._prefilter:
            return self._is_plausible_cegar(candidate)
        assumptions = self._candidate_assumptions(candidate)
        result = self._solve(assumptions)
        if not result.satisfiable:
            return DecamouflageResult(False, conflicts=result.conflicts)
        return DecamouflageResult(
            True, witness=self._model_witness(result.model), conflicts=result.conflicts
        )

    #: Mismatch words added to the lazy encoding per CEGAR round.
    CEGAR_WORDS_PER_ROUND = 4
    #: Below this input count the lazy unrolling cannot beat the eager one:
    #: camouflage spaces are intentionally ambiguous, so CEGAR converges
    #: only after pinning most of a small space anyway — at extra solve
    #: cost.  The possibility pre-filter still runs; survivors go eager.
    CEGAR_MIN_INPUTS = 5

    def _is_plausible_cegar(self, candidate: BoolFunction) -> DecamouflageResult:
        """Simulation-guided plausibility check over a lazily unrolled space."""
        if self._possibility is None:
            self._possibility = PossibilityAnalysis(self._netlist, self._plausible)
        word = self._possibility.refute(candidate)
        if word is not None:
            self._prefilter_counters["possibility_refutations"] += 1
            return DecamouflageResult(False)
        if len(self._netlist.primary_inputs) < self.CEGAR_MIN_INPUTS:
            assumptions = self._candidate_assumptions(candidate)
            result = self._solve(assumptions)
            if not result.satisfiable:
                return DecamouflageResult(False, conflicts=result.conflicts)
            return DecamouflageResult(
                True,
                witness=self._model_witness(result.model),
                conflicts=result.conflicts,
            )
        if self._simulator is None:
            self._simulator = NetlistSimulator(self._netlist)
        self._ensure_base()
        batch = PatternBatch.exhaustive(len(self._netlist.primary_inputs))
        expected = [table.bits for table in candidate.outputs]
        conflicts = 0
        while True:
            self._prefilter_counters["cegar_rounds"] += 1
            result = self._solve(self._assumptions_for_words(candidate))
            conflicts += result.conflicts
            if not result.satisfiable:
                # UNSAT on a subset of the words refutes the full query.
                self._prefilter_counters["cegar_verdicts"] += 1
                return DecamouflageResult(False, conflicts=conflicts)
            witness = self._model_witness(result.model)
            lanes = self._simulator.output_lanes(batch, witness)
            mismatch = 0
            for lane, want in zip(lanes, expected):
                mismatch |= lane ^ want
            if not mismatch:
                # The model configuration matches the candidate everywhere:
                # an exactly verified witness, no full unrolling needed.
                self._prefilter_counters["cegar_verdicts"] += 1
                return DecamouflageResult(True, witness=witness, conflicts=conflicts)
            added = 0
            while mismatch and added < self.CEGAR_WORDS_PER_ROUND:
                low = mismatch & -mismatch
                self._encode_word(low.bit_length() - 1)
                mismatch ^= low
                added += 1

    def enumerate_witnesses(
        self, candidate: BoolFunction, limit: Optional[int] = None
    ) -> List[Dict[str, TruthTable]]:
        """All configurations under which the circuit implements ``candidate``.

        Enumeration runs on the same persistent solver: each found witness is
        excluded by a blocking clause over its selector variables, guarded by
        a fresh session activation literal so the blocking clauses become
        inert (a single permanent unit clause disables them) once the
        enumeration finishes.
        """
        assumptions = self._candidate_assumptions(candidate)
        session = self._cnf.new_var()
        assumptions.append(session)
        witnesses: List[Dict[str, TruthTable]] = []
        while limit is None or len(witnesses) < limit:
            result = self._solve(assumptions)
            if not result.satisfiable:
                break
            witnesses.append(self._model_witness(result.model))
            blocking = [-session]
            for variable in self._selector_vars.values():
                if result.model.get(variable, False):
                    blocking.append(-variable)
            self._cnf.add_clause(blocking)
        # Retire the session: the blocking clauses are all satisfied by the
        # unit and never constrain later queries.
        self._cnf.add_clause([-session])
        return witnesses

    def is_plausible_under_any_interpretation(
        self,
        candidate: BoolFunction,
        max_permutations: Optional[int] = None,
    ) -> DecamouflageResult:
        """Check plausibility over all input/output pin interpretations.

        The adversary does not know which external wire carries which logical
        pin, so she must consider every input and output permutation of the
        candidate (Section III-B of the paper).  This is exponential in the
        pin count; ``max_permutations`` caps the number of interpretations
        tried (None means exhaustive).  All interpretations are solved on the
        one persistent solver.
        """
        tried = 0
        for input_perm in itertools.permutations(range(candidate.num_inputs)):
            for output_perm in itertools.permutations(range(candidate.num_outputs)):
                if max_permutations is not None and tried >= max_permutations:
                    return DecamouflageResult(False)
                tried += 1
                view = candidate.permute_inputs(list(input_perm)).permute_outputs(
                    list(output_perm)
                )
                outcome = self.is_plausible(view)
                if outcome.plausible:
                    return outcome
        return DecamouflageResult(False)

    def solver_stats(self) -> Dict[str, int]:
        """Cumulative statistics of the persistent solver (empty before use)."""
        if self._solver is None:
            return {}
        return self._solver.stats()

    def prefilter_stats(self) -> Dict[str, int]:
        """Query and encoding-work counters of this oracle.

        ``queries`` counts every :meth:`is_plausible` call and
        ``words_encoded`` every unrolled input word, on both paths (the
        eager path encodes all ``2**n`` words on first use).  The
        fuzz-specific counters — ``possibility_refutations``,
        ``cegar_rounds``, ``cegar_verdicts`` — stay zero while the
        pre-filter is off.
        """
        return dict(self._prefilter_counters)

    def telemetry(self, label: str = "") -> "RunTelemetry":
        """Solver and pre-filter counters as one unified telemetry record."""
        from ..telemetry import RunTelemetry

        return (
            RunTelemetry(label=label)
            .absorb("prefilter", self.prefilter_stats())
            .absorb("solver", self.solver_stats())
        )
