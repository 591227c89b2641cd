"""Unit tests for the oracle-guided (DIP-based) SAT attack extension."""

import pytest

from repro.attacks.oracle_guided import OracleGuidedAttack, attack_mapping
from repro.camo import CamouflageLibrary, camouflage_cell
from repro.logic import TruthTable
from repro.netlist import Netlist, extract_function
from repro.flow import obfuscate_with_assignment
from repro.logic import BoolFunction


@pytest.fixture
def single_camo_nand(library):
    """One camouflaged NAND2 feeding the only output."""
    camo_nand = camouflage_cell(library["NAND2"])
    camo_library = CamouflageLibrary([camo_nand])
    merged = camo_library.as_cell_library(include=library)
    netlist = Netlist("tiny", merged)
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.add_output("y")
    netlist.add_instance("CAMO_NAND2", [a, b], output="y", name="u_camo")
    return netlist, {"u_camo": list(camo_nand.plausible)}


class TestOracleGuidedAttackSmall:
    @pytest.mark.parametrize(
        "true_function",
        [
            lambda a, b: 1 - (a & b),  # NAND
            lambda a, b: 1 - a,        # ~A
            lambda a, b: 1,            # constant 1
        ],
    )
    def test_recovers_true_behaviour(self, single_camo_nand, true_function):
        netlist, plausible = single_camo_nand
        attack = OracleGuidedAttack(netlist, plausible, max_queries=16)

        def oracle(word):
            return true_function(word & 1, (word >> 1) & 1)

        result = attack.run(oracle)
        assert result.success
        assert result.num_queries <= 4
        assert result.recovered_function == [oracle(word) for word in range(4)]
        # The witness configuration must reproduce the oracle exactly.
        realised = extract_function(netlist, cell_functions=result.configuration)
        assert realised.lookup_table() == result.recovered_function

    def test_converges_on_exact_query_budget(self, single_camo_nand):
        # Recovering ~a needs exactly two DIPs; a budget of exactly two must
        # therefore succeed (the budget check happens only when another
        # distinguishing input actually remains).
        netlist, plausible = single_camo_nand
        baseline = OracleGuidedAttack(netlist, plausible, max_queries=16)
        needed = baseline.run(lambda word: 1 - (word & 1)).num_queries
        attack = OracleGuidedAttack(netlist, plausible, max_queries=needed)
        result = attack.run(lambda word: 1 - (word & 1))
        assert result.success
        assert result.num_queries == needed
        # One query fewer genuinely fails.
        starved = OracleGuidedAttack(netlist, plausible, max_queries=needed - 1)
        assert not starved.run(lambda word: 1 - (word & 1)).success

    def test_query_budget_respected(self, single_camo_nand):
        netlist, plausible = single_camo_nand
        attack = OracleGuidedAttack(netlist, plausible, max_queries=0)
        result = attack.run(lambda word: 1)
        assert not result.success
        assert result.num_queries == 0

    def test_empty_plausible_set_rejected(self, single_camo_nand):
        netlist, _ = single_camo_nand
        with pytest.raises(ValueError):
            OracleGuidedAttack(netlist, {"u_camo": []})


class TestIncrementalSolverUsage:
    def test_dip_loop_builds_exactly_one_solver(self, single_camo_nand, monkeypatch):
        import repro.attacks.oracle_guided as module

        constructed = []
        real_solver = module.SatSolver

        class CountingSolver(real_solver):
            def __init__(self, *args, **kwargs):
                constructed.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(module, "SatSolver", CountingSolver)
        netlist, plausible = single_camo_nand
        attack = module.OracleGuidedAttack(netlist, plausible, max_queries=16)
        result = attack.run(lambda word: 1 - (word & (word >> 1) & 1))
        assert result.success
        assert len(constructed) == 1, "the DIP loop must reuse one incremental solver"
        assert constructed[0] is attack.solver
        assert attack.solver.solve_calls >= result.num_queries + 1

    def test_cnf_vars_bounded_across_iterations(self, single_camo_nand):
        netlist, plausible = single_camo_nand
        attack = OracleGuidedAttack(netlist, plausible, max_queries=16)
        vars_before_run = attack.num_cnf_vars
        growth_per_query = []

        def oracle(word):
            growth_per_query.append(attack.num_cnf_vars)
            return 1 - (word & 1)  # ~a

        result = attack.run(oracle)
        assert result.success
        assert result.num_queries >= 2
        # A DIP query itself allocates nothing: the formula at the first
        # oracle call is exactly the once-encoded miter.
        assert growth_per_query[0] == vars_before_run
        # Each observation adds at most a fixed number of variables (two
        # circuit copies), so the per-iteration footprint is bounded and
        # growth is linear, not quadratic.
        per_observation = 2 * len(netlist.topological_order())
        deltas = [
            later - earlier
            for earlier, later in zip(growth_per_query, growth_per_query[1:])
        ]
        assert all(delta <= per_observation for delta in deltas)
        assert attack.num_cnf_vars - vars_before_run <= per_observation * result.num_queries

    def test_constant_true_variable_is_persistent(self, single_camo_nand):
        netlist, plausible = single_camo_nand
        attack = OracleGuidedAttack(netlist, plausible, max_queries=16)
        before = attack.num_cnf_vars
        # Constant-input construction reuses the persistent true variable.
        literals_a = attack._constant_inputs(0b01)
        literals_b = attack._constant_inputs(0b10)
        assert attack.num_cnf_vars == before
        true_vars = {abs(literal) for literal in literals_a.values()}
        true_vars |= {abs(literal) for literal in literals_b.values()}
        assert true_vars == {attack._true_var}

    def test_solver_stats_surfaced(self, single_camo_nand):
        netlist, plausible = single_camo_nand
        attack = OracleGuidedAttack(netlist, plausible, max_queries=16)
        result = attack.run(lambda word: 1)
        assert result.solver_stats["solve_calls"] == attack.solver.solve_calls
        assert result.solver_stats["propagations"] > 0


class TestPresampleTranscript:
    """Transcript pins for the on-by-default presampling phase."""

    @pytest.fixture(scope="class")
    def small_mapping(self, library):
        f_and = BoolFunction(
            [TruthTable.variable(0, 2) & TruthTable.variable(1, 2)], name="and"
        )
        f_xor = BoolFunction(
            [TruthTable.variable(0, 2) ^ TruthTable.variable(1, 2)], name="xor"
        )
        return obfuscate_with_assignment([f_and, f_xor], library=library, effort="fast")

    def test_default_transcript_is_presampled_and_seeded(self, small_mapping):
        from repro.sim.patterns import RandomPatternSource

        first = attack_mapping(small_mapping.mapping, true_select=1, max_queries=32)
        second = attack_mapping(small_mapping.mapping, true_select=1, max_queries=32)
        assert first.success and second.success
        # Presampling is on by default; the presample words are the
        # seeded distinct stream, capped at the input space, and the whole
        # transcript (presample + DIPs) is reproducible run to run.
        assert len(first.presample_queries) > 0
        num_inputs = len(small_mapping.mapping.netlist.primary_inputs)
        expected_words = RandomPatternSource(101).words(
            num_inputs, 32, distinct=True
        )
        assert first.presample_queries == expected_words
        assert first.presample_queries == second.presample_queries
        assert first.queries == second.queries
        assert first.recovered_function == second.recovered_function

    def test_presample_matches_cold_transcript_function(self, small_mapping):
        presampled = attack_mapping(small_mapping.mapping, true_select=0, max_queries=32)
        cold = attack_mapping(
            small_mapping.mapping, true_select=0, max_queries=32, presample=0
        )
        assert presampled.success and cold.success
        assert presampled.recovered_function == cold.recovered_function
        assert cold.presample_queries == []
        # Full-space presampling replaces DIP queries outright on this tiny
        # workload: the miter UNSAT proof is skipped, not just accelerated.
        assert presampled.total_oracle_queries >= len(presampled.presample_queries)


class TestSolveBudgetExhaustion:
    def test_budget_exhaustion_reports_timed_out(self, single_camo_nand, monkeypatch):
        from repro.faults import FAULTS_ENV_VAR, reset_fault_state

        netlist, plausible = single_camo_nand
        # Every solver call returns UNKNOWN: the attack must surface the
        # exhaustion as timed_out=False-success instead of claiming the
        # camouflage "withstood" the attack.
        monkeypatch.setenv(FAULTS_ENV_VAR, "solver_unknown:count=0")
        reset_fault_state()
        try:
            attack = OracleGuidedAttack(netlist, plausible, max_queries=16)
            result = attack.run(lambda word: 1 - (word & 1))
            assert not result.success
            assert result.timed_out
            assert result.num_queries == 0  # partial progress is reported
        finally:
            monkeypatch.delenv(FAULTS_ENV_VAR)
            reset_fault_state()

    def test_unbudgeted_attack_never_times_out(self, single_camo_nand):
        netlist, plausible = single_camo_nand
        attack = OracleGuidedAttack(netlist, plausible, max_queries=16)
        result = attack.run(lambda word: 1 - (word & 1))
        assert result.success
        assert not result.timed_out


class TestAttackAgainstMapping:
    def test_recovers_configured_viable_function(self, library):
        # Two tiny 2-input / 1-output viable functions keep the DIP loop fast.
        f_and = BoolFunction([TruthTable.variable(0, 2) & TruthTable.variable(1, 2)], name="and")
        f_or = BoolFunction([TruthTable.variable(0, 2) | TruthTable.variable(1, 2)], name="or")
        result = obfuscate_with_assignment([f_and, f_or], library=library, effort="fast")
        outcome = attack_mapping(result.mapping, true_select=1, max_queries=32)
        assert outcome.success
        view = result.assignment.apply([f_and, f_or])[1]
        assert outcome.recovered_function == view.lookup_table()
        # An oracle-equipped adversary defeats camouflaging with few queries —
        # which is exactly why the paper's threat model excludes oracle access.
        assert outcome.num_queries <= 4
