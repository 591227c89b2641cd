"""Tests for the solver's geometric restart schedule."""

import random

from repro.sat import SatSolver


def _hard_random_formula(solver, seed=9, num_vars=30, num_clauses=128):
    rng = random.Random(seed)
    solver.reserve_vars(num_vars)
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        solver.add_clause(
            [v if rng.random() < 0.5 else -v for v in variables]
        )


class TestRestartStrategies:
    def test_restart_counter_in_stats(self):
        solver = SatSolver()
        _hard_random_formula(solver, seed=3, num_vars=40, num_clauses=180)
        solver.solve()
        stats = solver.stats()
        assert stats["restarts"] == solver.restarts
        assert solver.restarts >= 0
