"""The pure solver's literal codes hold their invariants on generated formulas.

Inside the pure solver a literal is a code, as in MiniSat: ``v`` is ``2v``
and ``-v`` is ``2v + 1``.  After every solve of an incremental formula this
checks that the trail and the stored clauses hold only codes of reserved
variables, that each stored clause is watched by its first two literals
and nowhere else, that problem clauses share the solver's one int object
per code, and that a model, which the API reports in DIMACS terms,
satisfies everything added so far.  The generated variables are shifted
past 128, so their codes lie beyond CPython's cache of small ints (up to
256), where two equal ints need not be one object and the sharing check
can fail.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from test_order_heap import incremental_formulas

from repro.sat.solver import SatSolver

SHIFT = 200


def _shifted(literal: int) -> int:
    return literal + SHIFT if literal > 0 else literal - SHIFT


def _check_codes(solver: SatSolver) -> None:
    top = 2 * solver.num_vars + 1
    assert len(solver._codes) == len(solver._value) == len(solver._watches) == top + 1
    for literal in solver._trail:
        assert type(literal) is int and 2 <= literal <= top
    placements = Counter(
        (code, id(clause))
        for code, watchers in enumerate(solver._watches)
        for clause in watchers
    )
    assert sum(placements.values()) == 2 * len(solver._clauses)
    for clause, learned in zip(solver._clauses, solver._learned_flags):
        for literal in clause:
            assert type(literal) is int and 2 <= literal <= top
            if not learned:
                assert literal is solver._codes[literal]
        assert placements[(clause[0], id(clause))] == 1
        assert placements[(clause[1], id(clause))] == 1


def _check_model(model, num_vars, clauses, assumptions) -> None:
    assert sorted(model) == list(range(1, num_vars + 1))

    def holds(literal):
        return model[abs(literal)] == (literal > 0)

    for clause in clauses:
        assert any(holds(literal) for literal in clause)
    assert all(holds(literal) for literal in assumptions)


def test_codes_hold_their_invariants_after_every_solve():
    verdicts = Counter()

    @given(incremental_formulas())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def check(batches):
        solver = SatSolver(backend="pure")
        added = []
        for clauses, assumptions in batches:
            clauses = [[_shifted(literal) for literal in clause] for clause in clauses]
            assumptions = [_shifted(literal) for literal in assumptions]
            solver.add_clauses(clauses)
            added.extend(clauses)
            result = solver.solve(assumptions)
            _check_codes(solver)
            if result.satisfiable:
                _check_model(result.model, solver.num_vars, added, assumptions)
            verdicts[result.status] += 1

    check()
    # Both verdicts occurred, so models and failed searches were checked.
    assert verdicts["sat"] > 0 and verdicts["unsat"] > 0
