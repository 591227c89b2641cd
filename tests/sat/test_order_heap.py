"""The solver's order heap picks what a linear scan over the variables picks.

Every branching decision must go to the unassigned variable with the
highest activity, the lowest index on ties.  The heap is only a faster way
to find it, so a subclass checks each pick against a plain scan, and that
every unassigned variable has a heap entry with its current activity, on
incremental formulas solved under assumptions.  A tiny activity decay
makes the activities pass their rescale threshold every five conflicts, so
the heap rebuild that follows a rescale is checked too.  Variables that no
conflict has touched tie at zero activity, where the lowest index must win.

A heap entry is one packed int (``_order_entry``), which must order
exactly as the tuple ``(-activity, variable)`` it stands for; a second
property test checks that on drawn activities (zero, subnormals, adjacent
doubles, values around the rescale threshold, exact ties) and variables up
to the 32-bit limit of the entry, beyond which packing raises.
"""

from __future__ import annotations

import heapq
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.solver import _UNASSIGNED, SatSolver, _order_entry


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
        assert all(
            _order_entry(self._activity[variable], variable) in entries
            for variable in unassigned
        )
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


#: The largest variable an entry holds, and the activity past which the
#: solver rescales.
MAX_VARIABLE = 2**32 - 1
RESCALE_THRESHOLD = 1e100


def _step(activity: float, steps: int) -> float:
    """``activity`` moved ``steps`` doubles up or down, never below zero."""
    for _ in range(abs(steps)):
        activity = math.nextafter(activity, math.inf if steps > 0 else 0.0)
    return activity


#: Non-negative activities (the solver's are never negative).
activities = st.one_of(
    st.sampled_from([0.0, 5e-324, sys.float_info.min, 1e-100, 1.0, RESCALE_THRESHOLD]),
    st.floats(min_value=0.0, max_value=sys.float_info.min),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=RESCALE_THRESHOLD / 2, max_value=RESCALE_THRESHOLD * 2),
    st.floats(min_value=0.0, allow_infinity=False),
)

variables = st.one_of(
    st.sampled_from([1, 2, 2**31 - 1, 2**31, MAX_VARIABLE - 1, MAX_VARIABLE]),
    st.integers(min_value=1, max_value=MAX_VARIABLE),
)


@st.composite
def heap_pairs(draw):
    """``(activity, variable)`` pairs drawn from small pools, so ties occur.

    The activity pool holds a drawn activity's neighbours, up to two
    doubles either side, and a few more activities.
    """
    base = draw(activities)
    steps = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=4))
    activity_pool = [_step(base, count) for count in steps]
    activity_pool += draw(st.lists(activities, max_size=3))
    variable_pool = draw(st.lists(variables, min_size=1, max_size=6))
    return draw(
        st.lists(
            st.tuples(st.sampled_from(activity_pool), st.sampled_from(variable_pool)),
            min_size=1,
            max_size=12,
        )
    )


@given(heap_pairs())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_packed_entries_order_like_tuples(pairs):
    tuples = [(-activity, variable) for activity, variable in pairs]
    entries = [_order_entry(activity, variable) for activity, variable in pairs]
    for entry, (_, variable) in zip(entries, pairs):
        assert entry & MAX_VARIABLE == variable
    for left_tuple, left_entry in zip(tuples, entries):
        for right_tuple, right_entry in zip(tuples, entries):
            assert (left_entry < right_entry) == (left_tuple < right_tuple)
            assert (left_entry == right_entry) == (left_tuple == right_tuple)
    # So a heap of either pops the variables in one order.
    heapq.heapify(tuples)
    heapq.heapify(entries)
    popped_tuples = [heapq.heappop(tuples)[1] for _ in range(len(pairs))]
    popped_entries = [heapq.heappop(entries) & MAX_VARIABLE for _ in range(len(pairs))]
    assert popped_entries == popped_tuples


@pytest.mark.parametrize("variable", [-1, MAX_VARIABLE + 1, 2**40])
def test_variable_beyond_the_entry_raises(variable):
    with pytest.raises(ValueError, match="does not fit"):
        _order_entry(1.0, variable)
