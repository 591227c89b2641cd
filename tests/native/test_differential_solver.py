"""Differential cross-check: native SolverCore vs the pure CDCL solver.

The compiled core claims *transcript identity*: same verdicts, same
models, and same decision/conflict/propagation counts on every input.
These tests drive both backends in lockstep over the NeuroSAT-style
corpus, incremental interleavings, assumptions, budgets, restarts, and
clause forgetting, asserting exact equality throughout.
"""

from __future__ import annotations

import random

from repro.sat.generate import generate_corpus, generate_pair
from repro.sat.solver import SatSolver, SolveBudget

TRANSCRIPT_KEYS = (
    "solve_calls",
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "budget_exhaustions",
    "num_vars",
    "num_clauses",
    "learned_clauses",
    "forgotten_clauses",
)


def both(**kwargs):
    return SatSolver(backend="pure", **kwargs), SatSolver(backend="native", **kwargs)


def assert_lockstep(pure, native, assumptions=(), budget=None):
    result_pure = pure.solve(assumptions, budget=budget)
    result_native = native.solve(assumptions, budget=budget)
    assert result_native.status == result_pure.status
    assert result_native.model == result_pure.model
    assert (result_native.conflicts, result_native.decisions, result_native.propagations) == (
        result_pure.conflicts,
        result_pure.decisions,
        result_pure.propagations,
    )
    stats_pure = pure.stats()
    stats_native = native.stats()
    for key in TRANSCRIPT_KEYS:
        assert stats_native[key] == stats_pure[key], key
    return result_pure


class TestCnfPairCorpus:
    """Both backends agree on >= 200 generated sat/unsat pairs."""

    def test_corpus_verdicts_models_and_counts(self):
        corpus = generate_corpus(200, min_vars=5, max_vars=30, seed=2017)
        assert len(corpus) == 200
        for index, pair in enumerate(corpus):
            for clauses, expected in (
                (pair.unsat_clauses, "unsat"),
                (pair.sat_clauses, "sat"),
            ):
                pure, native = both()
                pure.reserve_vars(pair.num_vars)
                native.reserve_vars(pair.num_vars)
                for clause in clauses:
                    pure.add_clause(clause)
                    native.add_clause(clause)
                result = assert_lockstep(pure, native)
                assert result.status == expected, (index, expected)

    def test_single_pair_is_reproducible(self):
        first = generate_pair(20, seed=7)
        second = generate_pair(20, seed=7)
        assert first == second


class TestIncrementalAndAssumptions:
    def test_randomized_incremental_interleavings(self):
        rng = random.Random(424242)
        for trial in range(60):
            num_vars = rng.randint(5, 18)
            pure, native = both()
            for _ in range(rng.randint(2, 4)):
                for _ in range(rng.randint(3, 25)):
                    size = rng.randint(1, min(4, num_vars))
                    variables = rng.sample(range(1, num_vars + 1), size)
                    clause = [
                        variable if rng.random() < 0.5 else -variable
                        for variable in variables
                    ]
                    pure.add_clause(clause)
                    native.add_clause(clause)
                assumptions = []
                if rng.random() < 0.6:
                    chosen = rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
                    assumptions = [
                        variable if rng.random() < 0.5 else -variable
                        for variable in chosen
                    ]
                assert_lockstep(pure, native, assumptions=assumptions)

    def test_assumption_vars_beyond_clause_range(self):
        pure, native = both()
        for solver in (pure, native):
            solver.add_clause([1, 2])
        assert_lockstep(pure, native, assumptions=[-5, 3])

    def test_trivially_unsat_is_permanent_on_both(self):
        pure, native = both()
        for solver in (pure, native):
            solver.add_clause([1])
            solver.add_clause([-1])
        assert_lockstep(pure, native)
        for solver in (pure, native):
            solver.add_clause([2, 3])
        assert_lockstep(pure, native)

    def test_duplicate_and_tautological_clauses(self):
        pure, native = both()
        for solver in (pure, native):
            solver.add_clause([1, 1, 2])
            solver.add_clause([3, -3])
            solver.add_clause([-1, 2])
            solver.add_clause([-2])
        assert_lockstep(pure, native)


class TestBudgets:
    def test_conflict_budget_unknown_parity(self):
        rng = random.Random(11)
        seen_unknown = 0
        for trial in range(40):
            num_vars = rng.randint(12, 24)
            pure, native = both()
            for _ in range(int(num_vars * 4.4)):
                variables = rng.sample(range(1, num_vars + 1), 3)
                clause = [
                    variable if rng.random() < 0.5 else -variable
                    for variable in variables
                ]
                pure.add_clause(clause)
                native.add_clause(clause)
            budget = SolveBudget(max_conflicts=rng.randint(1, 25))
            result = assert_lockstep(pure, native, budget=budget)
            if result.status == "unknown":
                seen_unknown += 1
            # Re-solve without a budget: the warm solvers stay in lockstep.
            assert_lockstep(pure, native)
        assert seen_unknown > 0

    def test_propagation_budget_unknown_parity(self):
        pair = generate_pair(40, seed=3)
        pure, native = both()
        for clause in pair.unsat_clauses:
            pure.add_clause(clause)
            native.add_clause(clause)
        budget = SolveBudget(max_propagations=10)
        assert_lockstep(pure, native, budget=budget)


class TestRestartStrategies:
    def test_restart_transcripts_match(self):
        pair = generate_pair(60, seed=99)
        pure, native = both()
        for clause in pair.unsat_clauses:
            pure.add_clause(clause)
            native.add_clause(clause)
        assert_lockstep(pure, native)


class TestClauseForgetting:
    def test_forgetting_transcripts_match(self):
        rng = random.Random(5150)
        num_vars = 120
        pure, native = both(clause_forget=40)
        for _ in range(int(num_vars * 4.3)):
            variables = rng.sample(range(1, num_vars + 1), 3)
            clause = [
                variable if rng.random() < 0.5 else -variable
                for variable in variables
            ]
            pure.add_clause(clause)
            native.add_clause(clause)
        assert_lockstep(pure, native, budget=SolveBudget(max_conflicts=3000))
        assert pure.stats()["forgotten_clauses"] == native.stats()["forgotten_clauses"]
