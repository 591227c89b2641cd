"""Tests for solve budgets: the UNKNOWN verdict and its client contracts."""

import math
import re
import time

import pytest

from repro.faults import FAULTS_ENV_VAR, reset_fault_state
from repro.sat import (
    BUDGET_ENV_VAR,
    Cnf,
    SatSolver,
    SolveBudget,
    SolveBudgetExceeded,
    solve,
)


def pigeonhole(pigeons, holes):
    """PHP(p, h): unsatisfiable for p > h and conflict-heavy to refute."""
    cnf = Cnf(pigeons * holes)
    var = lambda pigeon, hole: pigeon * holes + hole + 1
    for pigeon in range(pigeons):
        cnf.add_clause([var(pigeon, hole) for hole in range(holes)])
    for hole in range(holes):
        for one in range(pigeons):
            for two in range(one + 1, pigeons):
                cnf.add_clause([-var(one, hole), -var(two, hole)])
    return cnf


class TestSolveBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveBudget(max_conflicts=0)
        with pytest.raises(ValueError):
            SolveBudget(max_seconds=-1.0)

    def test_unbounded(self):
        assert SolveBudget().unbounded
        assert not SolveBudget(max_conflicts=5).unbounded

    def test_spec_round_trip(self):
        budget = SolveBudget(max_conflicts=100, max_seconds=2.5)
        assert SolveBudget.from_spec(budget.to_spec()) == budget
        assert SolveBudget.from_spec("propagations=1e6").max_propagations == 10 ** 6

    def test_bad_spec_raises(self):
        with pytest.raises(ValueError):
            SolveBudget.from_spec("gremlins=9")

    @pytest.mark.parametrize(
        "spec",
        ["seconds=nan", "seconds=inf", "conflicts=inf", "propagations=-inf",
         "conflicts=2.7", "propagations=-0.5", "seconds=soon"],
    )
    def test_spec_rejects_non_finite_and_fractional_values(self, spec):
        # Each error names the offending entry.
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            SolveBudget.from_spec(spec)

    def test_spec_accepts_whole_counts_in_exponent_form(self):
        budget = SolveBudget.from_spec("conflicts=1e4,propagations=2.0")
        assert budget.max_conflicts == 10 ** 4
        assert budget.max_propagations == 2
        assert isinstance(budget.max_conflicts, int)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_validation_rejects_non_finite_limits(self, value):
        with pytest.raises(ValueError):
            SolveBudget(max_seconds=value)
        with pytest.raises(ValueError):
            SolveBudget(max_conflicts=value)

    def test_scaled(self):
        budget = SolveBudget(max_conflicts=100, max_seconds=1.0)
        doubled = budget.scaled(2.0)
        assert doubled.max_conflicts == 200
        assert doubled.max_seconds == 2.0
        assert doubled.max_propagations is None

    def test_from_environment(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        assert SolveBudget.from_environment() is None
        monkeypatch.setenv(BUDGET_ENV_VAR, "conflicts=42")
        assert SolveBudget.from_environment().max_conflicts == 42
        monkeypatch.setenv(BUDGET_ENV_VAR, "  ")
        assert SolveBudget.from_environment() is None
        monkeypatch.setenv(BUDGET_ENV_VAR, "conflicts=inf")
        with pytest.raises(ValueError, match="conflicts=inf"):
            SolveBudget.from_environment()


class TestBudgetedSolve:
    def test_conflict_budget_yields_unknown(self):
        cnf = pigeonhole(5, 4)
        result = solve(cnf, budget=SolveBudget(max_conflicts=1))
        assert result.status == "unknown"
        assert result.unknown
        assert not result.satisfiable  # two-valued view stays conservative

    def test_unbudgeted_solve_completes(self):
        result = solve(pigeonhole(5, 4))
        assert result.status == "unsat"
        assert not result.unknown

    def test_propagation_budget(self):
        result = solve(pigeonhole(5, 4), budget=SolveBudget(max_propagations=1))
        assert result.unknown

    def test_wall_clock_budget(self):
        # A microscopic deadline must trip on the first conflict check.
        result = solve(pigeonhole(6, 5), budget=SolveBudget(max_seconds=1e-9))
        assert result.unknown

    def test_generous_budget_reaches_verdict(self):
        result = solve(pigeonhole(4, 3), budget=SolveBudget(max_conflicts=10 ** 6))
        assert result.status == "unsat"

    def test_budget_is_per_call_and_solver_stays_usable(self):
        solver = SatSolver(pigeonhole(5, 4))
        assert solver.solve(budget=SolveBudget(max_conflicts=1)).unknown
        assert solver.budget_exhaustions == 1
        # The same solver, re-asked without a budget, finishes the proof.
        assert solver.solve().status == "unsat"
        assert solver.stats()["budget_exhaustions"] == 1

    def test_budget_none_transcript_identical(self):
        # The budget machinery must be invisible when no budget is given:
        # same verdict, same per-call statistics.
        budgeted = SatSolver(pigeonhole(4, 3))
        plain = SatSolver(pigeonhole(4, 3))
        generous = budgeted.solve(budget=SolveBudget(max_conflicts=10 ** 9))
        bare = plain.solve()
        assert generous.status == bare.status == "unsat"
        assert (generous.conflicts, generous.decisions, generous.propagations) == (
            bare.conflicts,
            bare.decisions,
            bare.propagations,
        )

    def test_solver_unknown_fault_forces_unknown(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "solver_unknown")
        reset_fault_state()
        try:
            cnf = Cnf(1)
            cnf.add_clause([1])
            solver = SatSolver(cnf)
            assert solver.solve().unknown
            assert solver.budget_exhaustions == 1
            assert solver.solve().status == "sat"  # fault count exhausted
        finally:
            monkeypatch.delenv(FAULTS_ENV_VAR)
            reset_fault_state()


class TestClientContracts:
    def test_equivalence_checker_raises_instead_of_guessing(self, monkeypatch):
        from repro.logic import BoolFunction
        from repro.sat.equivalence import check_netlist_function
        from repro.synth import synthesize

        # An UNKNOWN verdict from the miter solve must surface as an
        # exception — coerced to False it would be persisted as "not
        # equivalent".  The injected fault forces the UNKNOWN determin-
        # istically; the prefilter must be off so the check actually
        # reaches the SAT solver (small miters are otherwise fully decided
        # by exhaustive simulation).
        function = BoolFunction.from_lookup(
            [x ^ ((x << 1) & 0xF) ^ 1 for x in range(16)], 4, 4
        )
        netlist = synthesize(function, effort="fast").netlist
        assert check_netlist_function(netlist, function, prefilter=False)
        monkeypatch.setenv(FAULTS_ENV_VAR, "solver_unknown")
        reset_fault_state()
        try:
            with pytest.raises(SolveBudgetExceeded):
                check_netlist_function(netlist, function, prefilter=False)
        finally:
            monkeypatch.delenv(FAULTS_ENV_VAR)
            reset_fault_state()

    def test_plausibility_oracle_raises_instead_of_guessing(self, monkeypatch):
        from repro.attacks.decamouflage import PlausibleFunctionOracle
        from repro.evaluation.workloads import workload_functions
        from repro.flow.obfuscate import obfuscate
        from repro.ga.engine import GAParameters

        functions = workload_functions("PRESENT", 2)
        flow = obfuscate(
            functions,
            ga_parameters=GAParameters(
                population_size=4, generations=1, seed=1
            ),
            fitness_effort="fast",
            final_effort="fast",
        )
        views = flow.assignment.apply(list(functions))
        oracle = PlausibleFunctionOracle.from_mapping(flow.mapping, prefilter=False)
        assert oracle.is_plausible(views[0])
        monkeypatch.setenv(FAULTS_ENV_VAR, "solver_unknown:count=0")
        reset_fault_state()
        try:
            # A plausibility verdict must never be guessed from UNKNOWN.
            fresh = PlausibleFunctionOracle.from_mapping(
                flow.mapping, prefilter=False
            )
            with pytest.raises(SolveBudgetExceeded):
                fresh.is_plausible(views[1])
        finally:
            monkeypatch.delenv(FAULTS_ENV_VAR)
            reset_fault_state()

    def test_equivalence_checks_read_the_environment_budget(self, monkeypatch):
        from repro.logic import BoolFunction
        from repro.sat.equivalence import (
            check_netlist_equivalence,
            check_netlist_function,
        )
        from repro.synth import synthesize

        # No caller passes a budget: each check reads REPRO_SOLVE_BUDGET
        # when it is built.  Both miters need a dozen conflicts or more.
        function = BoolFunction.from_lookup(
            [x ^ ((x << 1) & 0xF) ^ 1 for x in range(16)], 4, 4
        )
        netlist = synthesize(function, effort="fast").netlist
        monkeypatch.setenv(BUDGET_ENV_VAR, "conflicts=1")
        with pytest.raises(SolveBudgetExceeded):
            check_netlist_function(netlist, function, prefilter=False)
        with pytest.raises(SolveBudgetExceeded):
            check_netlist_equivalence(netlist, netlist, prefilter=False)
        monkeypatch.setenv(BUDGET_ENV_VAR, "conflicts=1000000")
        assert check_netlist_function(netlist, function, prefilter=False)
        assert check_netlist_equivalence(netlist, netlist, prefilter=False)
