"""The solver's order heap picks what a linear scan over the variables picks.

Every branching decision must go to the unassigned variable with the
highest activity, the lowest index on ties.  The heap is only a faster way
to find it, so a subclass checks each pick against a plain scan, and that
every unassigned variable has a heap entry with its current activity, on
incremental formulas solved under assumptions.  A tiny activity decay
makes the activities pass their rescale threshold every five conflicts, so
the heap rebuild that follows a rescale is checked too.  Variables that no
conflict has touched tie at zero activity, where the lowest index must win.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.solver import _UNASSIGNED, SatSolver


class ScanCheckedSolver(SatSolver):
    """A pure solver whose every pick is compared with a linear scan."""

    def __init__(self, decay: float):
        super().__init__(backend="pure")
        self._activity_decay = decay
        self.picks = 0
        self.rescales = 0

    def _pick_branch_variable(self):
        unassigned = [
            variable
            for variable in range(1, self.num_vars + 1)
            if self._value[2 * variable] == _UNASSIGNED
        ]
        # Each unassigned variable has an entry with its current activity
        # (stale entries may sit beside it); one without could be skipped
        # by a later pick.
        entries = set(self._order_heap)
        assert all((-self._activity[variable], variable) in entries for variable in unassigned)
        picked = super()._pick_branch_variable()
        best = None
        for variable in unassigned:
            if best is None or self._activity[variable] > self._activity[best]:
                best = variable
        assert picked == best
        self.picks += 1
        return picked

    def _rescale_activities(self):
        self.rescales += 1
        super()._rescale_activities()


def literals(max_var: int):
    return st.builds(
        lambda variable, positive: variable if positive else -variable,
        st.integers(min_value=1, max_value=max_var),
        st.booleans(),
    )


@st.composite
def incremental_formulas(draw):
    """Batches of random 3-clauses over 10 to 40 variables, with assumptions.

    The batches add up to 2 to 10 clauses per variable, on both sides of
    the 3-SAT threshold near 4.3, where the search needs conflicts.
    Assumptions may name a few variables beyond every clause, which grows
    the solver between solves.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    num_vars = draw(st.integers(min_value=10, max_value=40))
    batches = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        clauses = [
            [variable if rng.random() < 0.5 else -variable
             for variable in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(draw(st.integers(min_value=num_vars, max_value=2 * num_vars)))
        ]
        assumptions = draw(st.lists(literals(num_vars + 4), max_size=3, unique_by=abs))
        batches.append((clauses, assumptions))
    return batches


def test_heap_picks_match_a_linear_scan():
    totals = {"picks": 0, "rescales": 0}

    @given(incremental_formulas())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def check(batches):
        solver = ScanCheckedSolver(decay=1e-20)
        for clauses, assumptions in batches:
            solver.add_clauses(clauses)
            solver.solve(assumptions)
        totals["picks"] += solver.picks
        totals["rescales"] += solver.rescales

    check()
    assert totals["picks"] > 0
    # At least one rescale happened, so a rebuilt heap was checked too.
    assert totals["rescales"] > 0
