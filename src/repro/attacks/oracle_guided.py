"""Oracle-guided (SAT) decamouflaging attack.

The paper's introduction notes that when an adversary can observe the
circuit's true input/output behaviour (e.g. through a scan chain), SAT-based
attacks in the style of references [11] and [12] apply.  This module
implements that stronger adversary as an extension of the reproduction: the
classic *distinguishing-input-pattern* (DIP) loop.

The attacker holds the camouflaged netlist (with the plausible-function
family of every camouflaged instance) and black-box access to the configured
chip.  Each iteration asks a SAT solver for an input on which two
still-consistent configurations disagree, queries the oracle on that input,
and constrains all future configurations to agree with the observed output.
When no distinguishing input remains, every surviving configuration is
functionally equivalent to the chip and the function has been recovered.

Against the paper's *threat model* (no oracle access) this attack is not
available; it is included to quantify how many I/O queries an oracle-equipped
adversary would need, which is a useful hardness measure for the generated
designs.

Incremental encoding
--------------------

The whole attack runs on **one** incremental :class:`~repro.sat.solver.
SatSolver` that follows the persistent CNF:

* The two-copy *miter* (both configuration copies evaluated on a shared
  free input word, plus the "some output differs" constraint) is encoded
  **once** at construction time.  The difference constraint is guarded by an
  *activation literal* ``act``: the clause is ``(-act v diff_1 v ... v
  diff_n)``, so it only bites when ``act`` is assumed.
* Each DIP query is then simply ``solve(assumptions=[act])`` — no clauses
  are added and **no variables are allocated**, so the formula does not grow
  at all for the query half of the loop.
* Each oracle observation appends a bounded number of clauses: both copies
  are evaluated at the (constant) queried word and their outputs pinned to
  the observed response.  Constant inputs reuse one persistent
  constant-true variable allocated in ``__init__``.
* The final configuration extraction is ``solve(assumptions=[-act])``,
  which disables the miter and asks only for consistency with every
  recorded observation.

Learned clauses, activity, and phases therefore carry over across the whole
DIP loop instead of being recomputed from scratch each iteration, and the
per-iteration variable footprint is bounded by the observation encoding (the
old implementation leaked the miter variables of every iteration).

Query-count invariance: the rewrite does not change what a DIP is, only how
cheaply one is found, so on the seed mapping workload the DIP sequence,
``num_queries``, and the recovered function are unchanged, and every seed
workload stays within its asserted query budget (the regression tests pin
this).  On degenerate toy cases the warm solver may find a *more*
informative DIP and finish in fewer queries.

Fuzz-before-SAT (presampling)
-----------------------------

``presample=N`` queries the oracle on ``N`` seeded random input words (in
one batch, answered by packed word-parallel simulation when the oracle is a
configured netlist) *before* the DIP loop and constrains both configuration
copies with the observed responses — the classic random-simulation
front-end of SAT-based attacks.  Cheap observations kill most of the
configuration space, so far fewer (and far cheaper) miter calls remain; the
recovered function is identical, but the DIP sequence is not.  Constructing
:class:`OracleGuidedAttack` directly still defaults to ``presample=0`` (the
classic cold transcript); the :func:`attack_mapping` and
:func:`attack_netlist` entry points presample :data:`DEFAULT_PRESAMPLE`
words unless told otherwise, and the regression tests pin both transcript
shapes explicitly.  Every DIP and presample word is recorded in a
:class:`~repro.sim.patterns.ReplayBuffer` (``OracleGuidedAttack.replay``) so
callers can reuse the distinguishing patterns across attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..logic.truthtable import TruthTable
from ..netlist.netlist import CONST0_NET, CONST1_NET, Netlist
from ..sat.cnf import Cnf
from ..sat.equivalence import add_difference_miter
from ..sat.solver import SatSolver, SolveBudget, SolveBudgetExceeded
from ..sat.tseitin import add_exactly_one, encode_camouflaged_copy
from ..sim.patterns import RandomPatternSource, ReplayBuffer
from ..techmap.mapper import CamouflagedMapping

__all__ = [
    "OracleGuidedResult",
    "OracleGuidedAttack",
    "attack_mapping",
    "attack_netlist",
    "attack_windowed",
]

#: Type of the black-box oracle: input word -> output word.
Oracle = Callable[[int], int]

#: Type of the batched oracle: input words -> output words (one call).
BatchOracle = Callable[[Sequence[int]], List[int]]


@dataclass
class OracleGuidedResult:
    """Outcome of the oracle-guided attack."""

    success: bool
    #: Recovered configuration (instance -> configured function), when successful.
    configuration: Dict[str, TruthTable] = field(default_factory=dict)
    #: The distinguishing inputs queried, in order.
    queries: List[int] = field(default_factory=list)
    #: The recovered word-level function (input word -> output word).
    recovered_function: List[int] = field(default_factory=list)
    #: Cumulative statistics of the single incremental solver run by the attack.
    solver_stats: Dict[str, int] = field(default_factory=dict)
    #: Random words queried up-front by the fuzz presampling phase, in order.
    presample_queries: List[int] = field(default_factory=list)
    #: True when a solve budget ran out before the attack could finish.  The
    #: result still carries the partial progress (presample + DIP queries so
    #: far, cumulative solver statistics), and the attack object's replay
    #: buffer keeps every observed word, so a re-run with a larger budget
    #: starts from real information rather than from scratch.
    timed_out: bool = False

    @property
    def num_queries(self) -> int:
        """Number of oracle queries (DIPs) the attack needed."""
        return len(self.queries)

    @property
    def total_oracle_queries(self) -> int:
        """All oracle calls: presample observations plus DIPs."""
        return len(self.presample_queries) + len(self.queries)

    def raise_if_timed_out(self) -> None:
        """Raise :class:`SolveBudgetExceeded` when a solve budget ran out.

        A partial transcript is no verdict on the design, so a caller that
        reports or persists one raises instead.
        """
        if self.timed_out:
            raise SolveBudgetExceeded(
                f"oracle-guided attack exhausted its solve budget after "
                f"{self.num_queries} DIP queries"
            )


class OracleGuidedAttack:
    """DIP-based SAT attack on a camouflaged netlist (one incremental solver).

    Works at any input width: the miter, the observation encoding, and the
    DIP loop are all linear in the circuit size.  Only the final success
    audit distinguishes widths — up to :data:`EXACT_RECOVERY_LIMIT` inputs
    the recovered configuration is checked against the oracle exhaustively
    (and ``recovered_function`` is the full lookup table, exactly as
    before); beyond it the audit is a seeded random packed cross-check of
    :data:`VERIFY_SAMPLES` words plus every word already shown to the
    oracle, and ``recovered_function`` stays empty (a ``2**n``-entry table
    would be exponential).  The SAT-attack guarantee — miter UNSAT means
    every surviving configuration agrees with the oracle everywhere — is
    what carries the wide case; the sampled audit is a defence-in-depth
    check.

    Every solve runs under ``REPRO_SOLVE_BUDGET``, read once here; an
    exhausted budget ends the run with ``timed_out`` set.
    """

    #: Input counts up to this bound get the exhaustive recovery audit.
    EXACT_RECOVERY_LIMIT = 16
    #: Seed of the presample words.
    PRESAMPLE_SEED = 101
    #: Seed and count of the random words of the wide-circuit audit.
    VERIFY_SEED = 131
    VERIFY_SAMPLES = 256

    def __init__(
        self,
        netlist: Netlist,
        instance_plausible: Mapping[str, Sequence[TruthTable]],
        max_queries: int = 256,
        presample: int = 0,
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
        self._max_queries = max_queries
        self._presample = presample
        #: Every word shown to the oracle (presample + DIPs), for replay.
        self.replay = ReplayBuffer()
        self._num_inputs = len(netlist.primary_inputs)
        self._num_outputs = len(netlist.primary_outputs)
        self._order = netlist.topological_order()

        # Persistent CNF followed by the single incremental solver.  The
        # solver is constructed exactly once; everything below and every
        # later observation flows into it through the Cnf listener hook.
        self._cnf = Cnf()
        self._solver = SatSolver(self._cnf, follow=True)

        # One persistent constant-true variable, reused by every constant
        # input encoding (the old code allocated a fresh one per call).
        self._true_var = self._cnf.new_var("const.true")
        self._cnf.add_clause([self._true_var])

        self._selectors_a = self._allocate_selectors("a")
        self._selectors_b = self._allocate_selectors("b")

        # The miter: both copies over one shared set of free input variables,
        # encoded once.  The "outputs differ" clause is guarded by an
        # activation literal so observation-consistency queries can disable it.
        self._input_vars = {
            net: self._cnf.new_var(f"in.{net}") for net in netlist.primary_inputs
        }
        free_inputs = {CONST1_NET: self._true_var, CONST0_NET: -self._true_var}
        free_inputs.update(self._input_vars)
        nets_a = self._encode_copy(self._selectors_a, free_inputs)
        nets_b = self._encode_copy(self._selectors_b, free_inputs)
        self._activation = self._cnf.new_var("miter.enable")
        add_difference_miter(
            self._cnf,
            [(nets_a[net], nets_b[net]) for net in self._netlist.primary_outputs],
            activation=self._activation,
        )

    @property
    def solver(self) -> SatSolver:
        """The single incremental solver driving the whole attack."""
        return self._solver

    @property
    def num_cnf_vars(self) -> int:
        """Current size of the persistent formula (diagnostics/tests)."""
        return self._cnf.num_vars

    # -------------------------------------------------------------- #
    # Encoding helpers
    # -------------------------------------------------------------- #
    def _allocate_selectors(self, tag: str) -> Dict[Tuple[str, int], int]:
        selectors: Dict[Tuple[str, int], int] = {}
        for name, functions in self._plausible.items():
            literals = []
            for index in range(len(functions)):
                variable = self._cnf.new_var(f"{tag}.cfg.{name}.{index}")
                selectors[(name, index)] = variable
                literals.append(variable)
            add_exactly_one(self._cnf, literals)
        return selectors

    def _encode_copy(
        self,
        selectors: Dict[Tuple[str, int], int],
        input_literals: Dict[str, int],
    ) -> Dict[str, int]:
        """Encode one evaluation of the circuit under a configuration copy."""
        return encode_camouflaged_copy(
            self._cnf, self._netlist, self._order, self._plausible,
            selectors, input_literals,
        )

    def _constant_inputs(self, word: int) -> Dict[str, int]:
        """Input literals for a fixed input word (plus constant nets).

        Reuses the persistent constant-true variable — no new variables or
        clauses are allocated here.
        """
        literals = {CONST1_NET: self._true_var, CONST0_NET: -self._true_var}
        for position, net in enumerate(self._netlist.primary_inputs):
            literals[net] = self._true_var if (word >> position) & 1 else -self._true_var
        return literals

    # -------------------------------------------------------------- #
    # The DIP loop
    # -------------------------------------------------------------- #
    def run(
        self, oracle: Oracle, oracle_batch: Optional[BatchOracle] = None
    ) -> OracleGuidedResult:
        """Run the attack against a black-box oracle.

        ``oracle_batch`` optionally answers many words in one call (e.g. a
        packed word-parallel simulation of the configured chip); the
        presample phase and the final sampled audit use it when present, so
        wide-netlist attacks never pay per-word Python dispatch for bulk
        queries.  The transcript is identical with or without it.
        """
        queries: List[int] = []
        presample_queries = self._run_presample(oracle, oracle_batch)
        # With the whole input space observed, both copies are pinned to the
        # oracle everywhere, so the miter is unsatisfiable by construction —
        # the (expensive) UNSAT proof is skipped, not just accelerated.
        observed_all = len(presample_queries) == (1 << self._num_inputs)

        while not observed_all:
            dip, unknown = self._find_distinguishing_input()
            if unknown:
                # Budget exhausted mid-search: report the partial progress
                # instead of hanging.  Everything observed so far stays in
                # the replay buffer and the solver's learned clauses.
                return OracleGuidedResult(
                    False,
                    queries=queries,
                    solver_stats=self._solver.stats(),
                    presample_queries=presample_queries,
                    timed_out=True,
                )
            if dip is None:
                break
            if len(queries) >= self._max_queries:
                # Distinguishing inputs remain but the query budget is spent.
                return OracleGuidedResult(
                    False,
                    queries=queries,
                    solver_stats=self._solver.stats(),
                    presample_queries=presample_queries,
                )
            response = oracle(dip)
            queries.append(dip)
            self.replay.add(dip)
            self._constrain_to_observation(dip, response)

        configuration, unknown = self._extract_configuration()
        if configuration is None:
            return OracleGuidedResult(
                False,
                queries=queries,
                solver_stats=self._solver.stats(),
                presample_queries=presample_queries,
                timed_out=unknown,
            )
        if self._num_inputs <= self.EXACT_RECOVERY_LIMIT:
            recovered = self._simulate_configuration(configuration)
            if oracle_batch is not None:
                words = list(range(1 << self._num_inputs))
                success = recovered == list(oracle_batch(words))
            else:
                success = all(
                    recovered[word] == oracle(word)
                    for word in range(1 << self._num_inputs)
                )
        else:
            # Wide circuit: the exhaustive table is exponential.  Audit the
            # recovered configuration on seeded random words plus every word
            # already shown to the oracle (packed, one simulation pass).
            recovered = []
            success = self._sampled_audit(configuration, oracle, oracle_batch)
        return OracleGuidedResult(
            success,
            configuration=configuration,
            queries=queries,
            recovered_function=recovered,
            solver_stats=self._solver.stats(),
            presample_queries=presample_queries,
        )

    def _sampled_audit(
        self,
        configuration: Dict[str, TruthTable],
        oracle: Oracle,
        oracle_batch: Optional[BatchOracle],
    ) -> bool:
        """Randomised recovery audit for wide circuits (packed cross-check)."""
        from ..sim.engine import NetlistSimulator

        words = list(self.replay.words())
        seen = set(words)
        source = RandomPatternSource(self.VERIFY_SEED)
        for word in source.words(self._num_inputs, self.VERIFY_SAMPLES):
            if word not in seen:
                seen.add(word)
                words.append(word)
        recovered = NetlistSimulator(
            self._netlist, cell_functions=configuration
        ).simulate_words(words)
        if oracle_batch is not None:
            expected = list(oracle_batch(words))
        else:
            expected = [oracle(word) for word in words]
        return recovered == expected

    def _run_presample(
        self, oracle: Oracle, oracle_batch: Optional[BatchOracle] = None
    ) -> List[int]:
        """Fuzz phase: constrain the space with random oracle observations.

        The words are drawn deterministically from the presample seed
        (distinct, capped at the full input space) and every observation is
        encoded exactly like a DIP observation.  With the whole input space
        sampled the subsequent miter query is immediately unsatisfiable and
        the attack degenerates to (cheap) exhaustive oracle reading.
        """
        if self._presample <= 0:
            return []
        source = RandomPatternSource(self.PRESAMPLE_SEED)
        words = source.words(self._num_inputs, self._presample, distinct=True)
        if oracle_batch is not None and words:
            responses = list(oracle_batch(words))
        else:
            responses = [oracle(word) for word in words]
        for word, response in zip(words, responses):
            self.replay.add(word)
            self._constrain_to_observation(word, response)
        return words

    def _find_distinguishing_input(self) -> Tuple[Optional[int], bool]:
        """SAT query: an input where two consistent configurations differ.

        The miter is already encoded; this is a pure assumption query under
        the activation literal and adds nothing to the formula.  Returns
        ``(word, False)`` for a DIP, ``(None, False)`` when none remains,
        and ``(None, True)`` when the solve budget ran out.
        """
        result = self._solver.solve(assumptions=[self._activation], budget=self._budget)
        if result.unknown:
            return None, True
        if not result.satisfiable:
            return None, False
        word = 0
        for position, net in enumerate(self._netlist.primary_inputs):
            if result.model.get(self._input_vars[net], False):
                word |= 1 << position
        return word, False

    def _constrain_to_observation(self, word: int, response: int) -> None:
        """Both configuration copies must reproduce the observed I/O pair."""
        inputs = self._constant_inputs(word)
        for selectors in (self._selectors_a, self._selectors_b):
            nets = self._encode_copy(selectors, inputs)
            for position, net in enumerate(self._netlist.primary_outputs):
                literal = nets[net]
                if (response >> position) & 1:
                    self._cnf.add_clause([literal])
                else:
                    self._cnf.add_clause([-literal])

    def _extract_configuration(
        self,
    ) -> Tuple[Optional[Dict[str, TruthTable]], bool]:
        # Disable the miter: only the accumulated observations constrain the
        # configuration copies here.  The second element reports a budget
        # exhaustion (configuration unknown, not inconsistent).
        result = self._solver.solve(assumptions=[-self._activation], budget=self._budget)
        if result.unknown:
            return None, True
        if not result.satisfiable:
            return None, False
        configuration: Dict[str, TruthTable] = {}
        for (name, index), variable in self._selectors_a.items():
            if result.model.get(variable, False):
                configuration[name] = self._plausible[name][index]
        return configuration, False

    def _simulate_configuration(self, configuration: Dict[str, TruthTable]) -> List[int]:
        from ..netlist.simulate import extract_function

        function = extract_function(self._netlist, cell_functions=configuration)
        return function.lookup_table()


DEFAULT_PRESAMPLE = 32


def attack_mapping(
    mapping: CamouflagedMapping,
    true_select: int,
    max_queries: int = 256,
    presample: Optional[int] = None,
) -> OracleGuidedResult:
    """Run the oracle-guided attack against a Phase III mapping.

    The oracle is the camouflaged netlist configured for ``true_select`` —
    i.e. the chip as manufactured for one particular viable function.  All
    oracle queries are answered from one packed word-parallel extraction of
    the configured netlist (a single batch, not ``2**n`` row simulations).

    ``presample`` controls the fuzz-before-SAT presampling phase (see the
    module docstring); ``None`` means :data:`DEFAULT_PRESAMPLE` words, and
    ``0`` preserves the classic cold-DIP transcript.
    """
    from ..sim.engine import NetlistSimulator

    configuration = mapping.configuration_for_select(true_select)
    truth = NetlistSimulator(mapping.netlist).extract_function(
        configuration.as_cell_functions()
    ).lookup_table()

    if presample is None:
        presample = DEFAULT_PRESAMPLE
    plausible = {
        name: list(mapping.plausible_functions_of(name))
        for name in mapping.camouflaged_instances()
    }
    attack = OracleGuidedAttack(
        mapping.netlist, plausible, max_queries=max_queries, presample=presample
    )
    return attack.run(lambda word: truth[word])


def attack_netlist(
    netlist: Netlist,
    instance_plausible: Mapping[str, Sequence[TruthTable]],
    true_configuration: Mapping[str, TruthTable],
    max_queries: int = 256,
    presample: Optional[int] = None,
) -> OracleGuidedResult:
    """Oracle-guided attack on an arbitrary-width camouflaged netlist.

    The oracle is the netlist configured with ``true_configuration`` (the
    chip as manufactured), answered by packed word-parallel simulation: bulk
    phases (presampling, the final audit) go through one batched simulation
    call, DIP queries through single-word packed passes.  Unlike
    :func:`attack_mapping` no exhaustive truth table is ever built, so
    stitched windowed netlists with dozens of inputs attack at the same
    per-query cost as S-boxes.
    """
    from ..sim.engine import NetlistSimulator

    simulator = NetlistSimulator(netlist, cell_functions=dict(true_configuration))

    def oracle(word: int) -> int:
        return simulator.simulate_words([word])[0]

    def oracle_batch(words: Sequence[int]) -> List[int]:
        return simulator.simulate_words(list(words))

    if presample is None:
        presample = DEFAULT_PRESAMPLE
    attack = OracleGuidedAttack(
        netlist, instance_plausible, max_queries=max_queries, presample=presample
    )
    return attack.run(oracle, oracle_batch=oracle_batch)


def attack_windowed(
    result,
    max_queries: int = 256,
    presample: Optional[int] = None,
) -> OracleGuidedResult:
    """Attack a stitched windowed obfuscation end-to-end.

    ``result`` is a :class:`~repro.flow.target.WindowedObfuscationResult`;
    the adversary sees the stitched netlist and the plausible family of
    every camouflaged cell, and queries the chip configured with the true
    per-window functions.
    """
    return attack_netlist(
        result.netlist,
        result.instance_plausible(),
        result.true_configuration,
        max_queries=max_queries,
        presample=presample,
    )
