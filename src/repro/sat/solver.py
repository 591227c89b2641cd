"""An incremental CDCL SAT solver (conflict-driven clause learning).

This is the reproduction's stand-in for MiniSat/PySAT, used by the
equivalence checker and by the adversary's decamouflaging attacks.  It
implements the standard modern architecture:

* two-literal watching for unit propagation,
* 1UIP conflict analysis with clause learning and non-chronological
  backtracking,
* VSIDS-style activity-based decision heuristics with phase saving,
* geometric restarts with learned-clause database reduction.

The solver works on :class:`repro.sat.cnf.Cnf` formulas with DIMACS-style
integer literals and supports solving under assumptions.

Incremental interface
---------------------

A :class:`SatSolver` is a *live* object, in the MiniSat mould, rather than a
one-shot function over a frozen formula:

* :meth:`SatSolver.add_clause` accepts new clauses at any time — also after
  a :meth:`solve` call.  The solver backtracks to decision level 0, attaches
  watches, simplifies the clause against the level-0 assignment, propagates
  new units, and records permanent unsatisfiability when the addition
  closes the formula.
* :meth:`SatSolver.reserve_vars` / :meth:`SatSolver.new_var` grow the
  per-variable arrays on demand; :meth:`add_clause` auto-grows when a
  clause references a variable beyond the current range.
* Learned clauses, VSIDS activities, and saved phases are all *kept* across
  successive :meth:`solve` calls, so a sequence of related queries (the DIP
  loop of the oracle-guided attack, candidate enumeration, miter checks
  under different activation literals) gets cheaper as the solver warms up.
* Solving under *assumptions* distinguishes "UNSAT under these assumptions"
  (a later call with other assumptions may succeed) from outright
  unsatisfiability of the clause database (permanent: every later call
  fails immediately).

A solver can also *follow* a growing :class:`~repro.sat.cnf.Cnf`: construct
it with ``SatSolver(cnf, follow=True)`` and every subsequent
``cnf.new_var()`` / ``cnf.add_clause()`` is mirrored into the live solver,
so client code keeps a readable CNF record (names, DIMACS export) while the
solver incrementally ingests the formula.

Statistics are kept both cumulatively on the solver (``solver.conflicts``,
``solver.stats()``) and per call on the returned :class:`SatResult`
(``result.conflicts`` is the number of conflicts *this* call needed).
"""

from __future__ import annotations

import heapq
import math
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..faults import fault_fires, faults_enabled
from .cnf import Cnf

__all__ = [
    "SatResult",
    "SatSolver",
    "SolveBudget",
    "SolveBudgetExceeded",
    "solve",
    "BUDGET_ENV_VAR",
    "DEFAULT_FORGET_LIMIT",
]

#: Environment variable supplying a default per-call solve budget spec.
BUDGET_ENV_VAR = "REPRO_SOLVE_BUDGET"

#: Initial learned-database size that triggers the first LBD reduction.
DEFAULT_FORGET_LIMIT = 2000

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

#: The conflicts, decisions and propagations counted when a ``solve``
#: call began; each result reports the differences.
_StatsBase = Tuple[int, int, int]


def _resolve_clause_forget(value) -> int:
    """Resolve ``clause_forget=`` to an initial DB limit (0, None, False: off)."""
    if value is None or value is False:
        return 0
    if value is True:
        return DEFAULT_FORGET_LIMIT
    limit = int(value)
    return limit if limit > 0 else 0


#: The low 32 bits of an order-heap entry hold its variable.
_VARIABLE_MASK = (1 << 32) - 1
_ENTRY_TOP = (1 << 64) - 1
_pack_double = struct.Struct("<d").pack


def _order_entry(activity: float, variable: int) -> int:
    """The pure solver's order-heap entry of ``variable`` at ``activity``.

    One int, ``(2**64 - 1 - bits(activity)) << 32 | variable``, where
    ``bits`` is the IEEE-754 pattern of the activity.  The patterns of
    non-negative doubles order as the doubles do, so entries order
    exactly as the tuples ``(-activity, variable)``: the highest activity
    first, the lowest index on ties.  ``_backtrack`` computes the same
    expression inline.
    """
    if not 0 <= variable <= _VARIABLE_MASK:
        raise ValueError(f"variable {variable} does not fit an order-heap entry")
    bits = int.from_bytes(_pack_double(activity), "little")
    return (_ENTRY_TOP - bits) << 32 | variable


def _code(literal: int) -> int:
    """The pure solver's code of a DIMACS literal: ``v`` is ``2v``, ``-v`` is ``2v + 1``."""
    return 2 * literal if literal > 0 else 1 - 2 * literal


class SolveBudgetExceeded(RuntimeError):
    """A solve-dependent answer could not be produced within its budget.

    Raised by clients (equivalence checking, plausibility oracles) whose
    callers need a definite yes/no: an UNKNOWN verdict must never be
    silently coerced into SAT or UNSAT, so it surfaces as this exception
    instead.  The campaign runner classifies it as a *transient* failure
    and retries the job with an escalated budget.
    """


@dataclass(frozen=True)
class SolveBudget:
    """Per-``solve``-call resource limits (``None`` = unlimited).

    A budget turns the solver's open-ended search into an anytime
    computation: when any limit is hit the call returns a result with
    ``status == "unknown"`` instead of running forever.  Limits are per
    call, not cumulative over the solver's lifetime.
    """

    max_conflicts: Optional[int] = None
    max_propagations: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        for name in ("max_conflicts", "max_propagations", "max_seconds"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def unbounded(self) -> bool:
        """True when no limit is set (equivalent to no budget at all)."""
        return (
            self.max_conflicts is None
            and self.max_propagations is None
            and self.max_seconds is None
        )

    def scaled(self, factor: float) -> "SolveBudget":
        """A budget with every limit multiplied by ``factor`` (escalation)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return SolveBudget(
            max_conflicts=(
                None if self.max_conflicts is None else max(1, int(self.max_conflicts * factor))
            ),
            max_propagations=(
                None
                if self.max_propagations is None
                else max(1, int(self.max_propagations * factor))
            ),
            max_seconds=None if self.max_seconds is None else self.max_seconds * factor,
        )

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec` (used to ship budgets to workers)."""
        parts = []
        if self.max_conflicts is not None:
            parts.append(f"conflicts={self.max_conflicts}")
        if self.max_propagations is not None:
            parts.append(f"propagations={self.max_propagations}")
        if self.max_seconds is not None:
            parts.append(f"seconds={self.max_seconds}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "SolveBudget":
        """Parse ``"conflicts=20000,propagations=5e6,seconds=2.5"``.

        Every value must be finite, and the two counts whole numbers
        (``5e6`` is fine, ``2.7`` is not); a bad entry raises a
        :class:`ValueError` that names it.
        """
        limits: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, value = part.partition("=")
            key = key.strip()
            if not separator or key not in ("conflicts", "propagations", "seconds"):
                raise ValueError(
                    f"bad solve-budget entry {part!r}; expected "
                    "conflicts=N, propagations=N, or seconds=X"
                )
            try:
                number = float(value)
            except ValueError:
                raise ValueError(f"bad solve-budget entry {part!r}; not a number") from None
            if not math.isfinite(number):
                raise ValueError(f"bad solve-budget entry {part!r}; must be finite")
            if key != "seconds":
                if not number.is_integer():
                    raise ValueError(
                        f"bad solve-budget entry {part!r}; must be a whole number"
                    )
                number = int(number)
            limits[key] = number
        return cls(
            max_conflicts=limits.get("conflicts"),
            max_propagations=limits.get("propagations"),
            max_seconds=limits.get("seconds"),
        )

    @classmethod
    def from_environment(cls) -> Optional["SolveBudget"]:
        """Budget from ``REPRO_SOLVE_BUDGET``, or None when unset/empty."""
        raw = os.environ.get(BUDGET_ENV_VAR, "").strip()
        if not raw:
            return None
        budget = cls.from_spec(raw)
        return None if budget.unbounded else budget


@dataclass
class SatResult:
    """Outcome of a SAT call (statistics are per call, not cumulative).

    ``status`` is the three-valued verdict: ``"sat"``, ``"unsat"``, or
    ``"unknown"`` (solve budget exhausted / injected fault).  The historic
    ``satisfiable`` flag is kept in sync for two-valued callers — but an
    UNKNOWN result reports ``satisfiable=False``, so budget-aware callers
    must check :attr:`unknown` before trusting it.
    """

    satisfiable: bool
    model: Dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    status: str = ""

    def __post_init__(self):
        if not self.status:
            self.status = "sat" if self.satisfiable else "unsat"

    @property
    def unknown(self) -> bool:
        """True when the call exhausted its budget without a verdict."""
        return self.status == "unknown"

    def value(self, variable: int) -> Optional[bool]:
        """Value of a variable in the model (None when unconstrained/UNSAT)."""
        return self.model.get(variable)


class SatSolver:
    """Incremental CDCL solver over a growable clause database."""

    def __init__(
        self,
        formula: Optional[Cnf] = None,
        follow: bool = False,
        backend: Optional[str] = None,
        clause_forget=None,
    ):
        self._forget_limit = _resolve_clause_forget(clause_forget)
        from .. import backend as backend_mod

        self.backend = backend_mod.active_backend(backend)
        self._core = None
        if self.backend == "native":
            self._core = backend_mod.native_module().SolverCore(
                forget_limit=self._forget_limit
            )
        self._num_vars = 0
        self._clauses: List[List[int]] = []
        self._learned_flags: List[bool] = []
        self._clause_lbd: List[int] = []
        self._num_learned = 0
        # Problem clauses as added by the client, including units and
        # clauses simplified away at level 0 (which never reach _clauses).
        self._num_problem_clauses = 0
        # Inside the pure solver a literal is a code, as in MiniSat: ``v``
        # is ``2v`` and ``-v`` is ``2v + 1``, so negation is ``l ^ 1`` and
        # the variable is ``l >> 1``.  Clauses, the trail and the
        # per-literal lists below use codes; DIMACS literals appear only
        # at the API (add_clause, assumptions, SatResult.model).  Each
        # per-literal list has one entry per code, 0 .. 2 * num_vars + 1
        # (codes 0 and 1 are unused), so every index is non-negative, as
        # CPython's specialised list subscript needs, and an unreserved
        # literal raises IndexError.  _codes holds one int object per
        # code, which every stored problem clause shares.
        self._codes: List[int] = [0, 1]
        self._value: List[int] = [_UNASSIGNED, _UNASSIGNED]
        # Watch lists hold the watched clauses themselves.
        self._watches: List[List[List[int]]] = [[], []]
        self._level: List[int] = [0]
        # The reason clause of each variable on the trail (None for
        # decisions and level-0 units); stale once the variable is undone.
        self._reason: List[Optional[List[int]]] = [None]
        self._activity: List[float] = [0.0]
        # The code of each variable's last assigned literal (saved phase);
        # it starts negative, at 2v + 1.
        self._phase: List[int] = [1]
        # Conflict-analysis marks, all clear between conflicts.
        self._seen: List[bool] = [False]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        # Lazy min-heap of branching candidates, one packed int per entry
        # (_order_entry): it orders as (-activity, variable), so the top is
        # what a linear scan picks, the highest activity and the lowest
        # index on ties, in O(log n).  _heap_key holds each variable's
        # current entry, the one with its current activity, or -1 when it
        # has none: _analyze clears it on every bump, and a pop of the
        # current entry clears it too.  Every other entry is stale and is
        # discarded when it reaches the top; an unassigned variable is
        # pushed only when it has no current entry.
        self._order_heap: List[int] = []
        self._heap_key: List[int] = [-1]
        self._queue_head = 0
        self._activity_increment = 1.0
        self._activity_decay = 0.95
        self._trivially_unsat = False

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.solve_calls = 0
        self.restarts = 0
        self.budget_exhaustions = 0
        self.forgotten_clauses = 0
        # Budget exhaustions recorded outside the native core (fault
        # injection); added to the core's own count when mirroring.
        self._extra_budget_exhaustions = 0

        if formula is not None:
            self.reserve_vars(formula.num_vars)
            for clause in formula.clauses:
                self.add_clause(clause)
            if follow:
                formula.attach(self)

    # -------------------------------------------------------------- #
    # Variable management
    # -------------------------------------------------------------- #
    @property
    def num_vars(self) -> int:
        """Number of variables the solver currently knows about."""
        return self._num_vars

    def _sync_counters(self) -> None:
        """Mirror the native core's counters onto the Python attributes."""
        core = self._core
        self.conflicts = core.conflicts
        self.decisions = core.decisions
        self.propagations = core.propagations
        self.restarts = core.restarts
        self.forgotten_clauses = core.forgotten_clauses
        self.budget_exhaustions = (
            core.budget_exhaustions + self._extra_budget_exhaustions
        )
        self._num_vars = core.num_vars
        self._num_learned = core.num_learned
        self._trivially_unsat = bool(core.trivially_unsat)

    def reserve_vars(self, num_vars: int) -> None:
        """Grow the per-variable arrays up to ``num_vars``, and the per-literal
        ones (``_codes``, ``_value``, ``_watches``) by the codes ``2v`` and
        ``2v + 1`` of each new variable ``v``."""
        if self._core is not None:
            self._core.reserve_vars(num_vars)
            self._num_vars = self._core.num_vars
            return
        grow = num_vars - self._num_vars
        if grow <= 0:
            return
        entries = [
            _order_entry(0.0, variable) for variable in range(self._num_vars + 1, num_vars + 1)
        ]
        first_code = 2 * self._num_vars + 2
        end_code = 2 * num_vars + 2
        self._codes.extend(range(first_code, end_code))
        self._value.extend([_UNASSIGNED] * (2 * grow))
        self._watches.extend([] for _ in range(2 * grow))
        self._level.extend([0] * grow)
        self._reason.extend([None] * grow)
        self._activity.extend([0.0] * grow)
        self._phase.extend(range(first_code + 1, end_code, 2))
        self._seen.extend([False] * grow)
        self._heap_key.extend(entries)
        for entry in entries:
            heapq.heappush(self._order_heap, entry)
        self._num_vars = num_vars

    def new_var(self) -> int:
        """Allocate (and return) a fresh variable."""
        self.reserve_vars(self._num_vars + 1)
        return self._num_vars

    # ---- Cnf follow hooks (see Cnf.attach) ----------------------- #
    def on_new_var(self, variable: int) -> None:
        self.reserve_vars(variable)

    def on_clause(self, clause: Sequence[int]) -> None:
        self.add_clause(clause)

    # -------------------------------------------------------------- #
    # Clause management
    # -------------------------------------------------------------- #
    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause to the live solver (allowed between solve calls).

        The clause is simplified against the permanent (level-0) assignment:
        satisfied clauses are dropped, falsified literals are removed, and a
        resulting unit is propagated immediately.  An empty (or fully
        falsified) clause makes the solver permanently UNSAT.
        """
        clause = list(literals)
        for literal in clause:
            if literal == 0:
                raise ValueError("0 is not a valid literal")
        self._num_problem_clauses += 1
        if self._trivially_unsat:
            return
        if self._core is not None:
            self._core.add_clause(clause)
            self._sync_counters()
            return
        self._backtrack(0)
        if clause:
            self.reserve_vars(max(abs(literal) for literal in clause))
        # Remove duplicates and level-0-falsified literals; drop tautologies
        # and clauses already satisfied at level 0.
        codes = self._codes
        values = self._value
        seen = set()
        cleaned: List[int] = []
        for literal in clause:
            code = codes[_code(literal)]
            if (code ^ 1) in seen:
                return
            if code in seen:
                continue
            value = values[code]
            if value == _TRUE:
                return
            if value == _FALSE:
                continue
            seen.add(code)
            cleaned.append(code)
        if not cleaned:
            self._trivially_unsat = True
            return
        if len(cleaned) == 1:
            if not self._enqueue(cleaned[0], None) or self._propagate() is not None:
                self._trivially_unsat = True
            return
        self._attach_clause(cleaned)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def _attach_clause(
        self, literals: List[int], learned: bool = False, lbd: int = 0
    ) -> List[int]:
        self._clauses.append(literals)
        self._learned_flags.append(learned)
        self._clause_lbd.append(lbd)
        if learned:
            self._num_learned += 1
        self._watches[literals[0]].append(literals)
        self._watches[literals[1]].append(literals)
        return literals

    # -------------------------------------------------------------- #
    # Assignment helpers
    # -------------------------------------------------------------- #
    def _enqueue(self, literal: int, reason: Optional[List[int]]) -> bool:
        values = self._value
        value = values[literal]
        if value == _TRUE:
            return True
        if value == _FALSE:
            return False
        values[literal] = _TRUE
        values[literal ^ 1] = _FALSE
        variable = literal >> 1
        self._level[variable] = len(self._trail_lim)
        self._reason[variable] = reason
        self._phase[variable] = literal
        self._trail.append(literal)
        return True

    # -------------------------------------------------------------- #
    # Unit propagation with two watched literals
    # -------------------------------------------------------------- #
    def _propagate(self) -> Optional[List[int]]:
        """Propagate the queued trail literals; return a conflict or None.

        The hot loop of the solver, written against locals: literals are
        codes, so a literal's value is ``values[l]`` at a non-negative
        index, its negation is ``l ^ 1`` and its variable ``l >> 1``.
        Units are enqueued inline at the current decision level, and a
        unit's code becomes its variable's saved phase.  A clause whose
        other watch is already true keeps its literal order; every other
        visit first moves the falsified literal to position 1, so conflict
        and reason clauses reach conflict analysis in the order it
        expects.  Swaps move the clause's own literal objects, never a
        freshly negated int, so problem clauses keep sharing the ``_codes``
        objects they were built from.
        """
        TRUE = _TRUE
        FALSE = _FALSE
        trail = self._trail
        values = self._value
        watches = self._watches
        level = self._level
        reason = self._reason
        phase = self._phase
        current_level = len(self._trail_lim)
        start = head = self._queue_head
        while head < len(trail):
            falsified = trail[head] ^ 1
            head += 1
            watchers = watches[falsified]
            index = 0
            end = len(watchers)
            while index < end:
                clause = watchers[index]
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    value = values[first]
                    if value == TRUE:
                        index += 1
                        continue
                    # Move the falsified literal to position 1.
                    clause[0], clause[1] = first, clause[0]
                else:
                    value = values[first]
                    if value == TRUE:
                        index += 1
                        continue
                # Look for a new literal to watch (an index loop: no range
                # object per scan).
                position = 2
                size = len(clause)
                while position < size:
                    candidate = clause[position]
                    if values[candidate] != FALSE:
                        clause[1], clause[position] = candidate, clause[1]
                        watches[candidate].append(clause)
                        end -= 1
                        watchers[index] = watchers[end]
                        watchers.pop()
                        break
                    position += 1
                else:
                    # Clause is unit or conflicting.
                    if value == FALSE:
                        self._queue_head = head
                        self.propagations += head - start
                        return clause
                    values[first] = TRUE
                    values[first ^ 1] = FALSE
                    variable = first >> 1
                    level[variable] = current_level
                    reason[variable] = clause
                    phase[variable] = first
                    trail.append(first)
                    index += 1
        self._queue_head = head
        self.propagations += head - start
        return None

    # -------------------------------------------------------------- #
    # Conflict analysis (first UIP)
    # -------------------------------------------------------------- #
    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int, int]:
        trail = self._trail
        level = self._level
        reason = self._reason
        activity = self._activity
        heap_key = self._heap_key
        increment = self._activity_increment
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        counter = 0
        literal = 0
        clause = conflict
        trail_index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            for clause_literal in clause:
                # Skip the literal we are resolving on (the implied literal of
                # the reason clause); everything else is examined.
                if clause_literal == literal:
                    continue
                variable = clause_literal >> 1
                if seen[variable]:
                    continue
                variable_level = level[variable]
                if variable_level == 0:
                    continue
                seen[variable] = True
                bumped = activity[variable] + increment
                activity[variable] = bumped
                # The bump always changes the activity (the increment is at
                # least a twentieth of every activity), so the variable's
                # entry, if any, is stale now.
                heap_key[variable] = -1
                if bumped > 1e100:
                    self._rescale_activities()
                    increment = self._activity_increment
                if variable_level == current_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Find the next literal of the current level on the trail.
            while True:
                literal = trail[trail_index]
                trail_index -= 1
                variable = literal >> 1
                if seen[variable]:
                    break
            seen[variable] = False
            counter -= 1
            if counter == 0:
                break
            clause = reason[variable]

        # Only the lower-level literals kept their marks; clear them.
        for clause_literal in learned[1:]:
            seen[clause_literal >> 1] = False
        learned[0] = literal ^ 1
        if len(learned) == 1:
            backtrack_level = 0
        else:
            # Move the highest-level literal (other than the asserting one)
            # to position 1 so it can be watched.
            best = 1
            best_level = level[learned[1] >> 1]
            for position in range(2, len(learned)):
                position_level = level[learned[position] >> 1]
                if position_level > best_level:
                    best = position
                    best_level = position_level
            learned[1], learned[best] = learned[best], learned[1]
            backtrack_level = best_level
        lbd = 0
        if self._forget_limit:
            # Literal block distance: distinct decision levels among the
            # learned literals, measured before backtracking.
            lbd = len({level[literal >> 1] for literal in learned})
        return learned, backtrack_level, lbd

    def _rescale_activities(self) -> None:
        """Scale every activity and the increment down by 1e100."""
        activity = self._activity
        for index in range(1, self._num_vars + 1):
            activity[index] *= 1e-100
        self._activity_increment *= 1e-100
        # Every heap key is stale after rescaling.
        self._rebuild_order_heap()

    def _rebuild_order_heap(self) -> None:
        activity = self._activity
        values = self._value
        heap_key = self._heap_key
        heap = []
        for variable in range(1, self._num_vars + 1):
            if values[2 * variable] == _UNASSIGNED:
                entry = _order_entry(activity[variable], variable)
                heap.append(entry)
                heap_key[variable] = entry
            else:
                heap_key[variable] = -1
        heapq.heapify(heap)
        self._order_heap = heap

    # -------------------------------------------------------------- #
    # Backtracking / restarts
    # -------------------------------------------------------------- #
    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        values = self._value
        activity = self._activity
        heap = self._order_heap
        heap_key = self._heap_key
        push = heapq.heappush
        pack = _pack_double
        from_bytes = int.from_bytes
        top = _ENTRY_TOP
        boundary = trail_lim[level]
        for literal in trail[boundary:]:
            values[literal] = values[literal ^ 1] = _UNASSIGNED
            variable = literal >> 1
            if heap_key[variable] == -1:
                # _order_entry, inline; every variable was checked against
                # the entry's range when it was reserved.
                entry = (top - from_bytes(pack(activity[variable]), "little")) << 32 | variable
                heap_key[variable] = entry
                push(heap, entry)
        del trail[boundary:]
        del trail_lim[level:]
        self._queue_head = boundary

    def _reduce_learned(self) -> None:
        """Halve the long learned clauses (a size-based policy).

        Every problem clause and every learned clause of at most four
        literals is kept; of the longer learned clauses only the newest
        half survives.  Runs at decision level 0 once 2000 learned clauses
        have accumulated.
        """
        # Only safe at decision level 0 with no active reasons.
        if self._trail_lim:
            return
        if self._num_learned < 2000:
            return
        # No clause needs to survive as a reason: at level 0 the only
        # reasons belong to level-0 assignments, which conflict analysis
        # skips, and they are all nulled after the rebuild below.
        kept_clauses: List[List[int]] = []
        kept_flags: List[bool] = []
        kept_lbd: List[int] = []
        long_clauses: List[List[int]] = []
        long_lbd: List[int] = []
        for clause, learned, lbd in zip(self._clauses, self._learned_flags, self._clause_lbd):
            if not learned or len(clause) <= 4:
                kept_clauses.append(clause)
                kept_flags.append(learned)
                kept_lbd.append(lbd)
            else:
                long_clauses.append(clause)
                long_lbd.append(lbd)
        keep_count = len(long_clauses) // 2
        if keep_count:
            kept_clauses.extend(long_clauses[-keep_count:])
            kept_flags.extend([True] * keep_count)
            kept_lbd.extend(long_lbd[-keep_count:])
        self._clauses = kept_clauses
        self._learned_flags = kept_flags
        self._clause_lbd = kept_lbd
        self._num_learned = sum(kept_flags)
        self._rebuild_watches_and_reasons()

    def _reduce_learned_lbd(self) -> None:
        """LBD-scored learned-clause forgetting (``clause_forget=``).

        Glue clauses (LBD <= 2) are permanent.  Of the remaining learned
        clauses, the half with the highest LBD is dropped (ties broken by
        age: newer clauses survive).  The trigger limit grows geometrically
        after every reduction attempt, so forgetting stays amortised.
        """
        if self._trail_lim:
            return
        if self._num_learned < self._forget_limit:
            return
        candidate_lbds = [
            self._clause_lbd[index]
            for index in range(len(self._clauses))
            if self._learned_flags[index] and self._clause_lbd[index] > 2
        ]
        if not candidate_lbds:
            self._forget_limit += self._forget_limit // 2
            return
        keep_target = len(candidate_lbds) // 2
        buckets: Dict[int, int] = {}
        for lbd in candidate_lbds:
            buckets[lbd] = buckets.get(lbd, 0) + 1
        max_lbd = max(candidate_lbds)
        # Keep whole LBD buckets from 3 upward while they fit, then fill the
        # remainder from the threshold bucket newest-first — fully integer
        # arithmetic, so the native twin reproduces it exactly.
        threshold = 3
        acc = 0
        while threshold <= max_lbd and acc + buckets.get(threshold, 0) <= keep_target:
            acc += buckets.get(threshold, 0)
            threshold += 1
        remaining = keep_target - acc
        keep_flag = set()
        for index in range(len(self._clauses) - 1, -1, -1):
            if remaining <= 0:
                break
            if self._learned_flags[index] and self._clause_lbd[index] == threshold:
                keep_flag.add(index)
                remaining -= 1
        kept_clauses: List[List[int]] = []
        kept_flags: List[bool] = []
        kept_lbd: List[int] = []
        for index, clause in enumerate(self._clauses):
            lbd = self._clause_lbd[index]
            if (
                not self._learned_flags[index]
                or lbd <= 2
                or lbd < threshold
                or index in keep_flag
            ):
                kept_clauses.append(clause)
                kept_flags.append(self._learned_flags[index])
                kept_lbd.append(lbd)
            else:
                self.forgotten_clauses += 1
        self._clauses = kept_clauses
        self._learned_flags = kept_flags
        self._clause_lbd = kept_lbd
        self._num_learned = sum(kept_flags)
        self._rebuild_watches_and_reasons()
        self._forget_limit += self._forget_limit // 2

    def _rebuild_watches_and_reasons(self) -> None:
        # Every stored clause has at least two literals (units are enqueued,
        # never attached); each watch list holds its clauses in index order.
        # The old lists are emptied first so both sets never coexist, which
        # would raise the peak memory of a long attack.
        watches = self._watches
        for watchers in watches:
            watchers.clear()
        for clause in self._clauses:
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)
        self._reason[1:] = [None] * self._num_vars

    # -------------------------------------------------------------- #
    # Decisions
    # -------------------------------------------------------------- #
    def _pick_branch_variable(self) -> Optional[int]:
        # Stale entries are discarded lazily at the top, so on long-lived
        # solvers the heap can accumulate one entry per unassignment;
        # compact it once it clearly outgrows the variable range.
        if len(self._order_heap) > 64 + 4 * self._num_vars:
            self._rebuild_order_heap()
        heap = self._order_heap
        values = self._value
        heap_key = self._heap_key
        pop = heapq.heappop
        mask = _VARIABLE_MASK
        while heap:
            entry = heap[0]
            variable = entry & mask
            if heap_key[variable] == entry:
                # The current entry: pick its variable if unassigned, or
                # drop it, and a later backtrack pushes the variable again.
                if values[2 * variable] == _UNASSIGNED:
                    return variable
                heap_key[variable] = -1
            pop(heap)
        return None

    # -------------------------------------------------------------- #
    # Main loop
    # -------------------------------------------------------------- #
    def solve(
        self, assumptions: Sequence[int] = (), budget: Optional[SolveBudget] = None
    ) -> SatResult:
        """Solve the current clause database, optionally under assumptions.

        Assumptions are literals tried as the first decisions; a failure
        that traces back to them means *UNSAT under these assumptions* and
        leaves the solver usable for later calls, while a conflict at
        decision level 0 proves the clause database itself unsatisfiable
        (every later call returns UNSAT immediately).

        With a :class:`SolveBudget` the call additionally returns a result
        with ``status == "unknown"`` once any limit is hit (checked at
        conflict events, so the unbudgeted hot path pays a single ``is
        None`` test per conflict).  The solver stays usable afterwards —
        re-solving with a larger budget resumes from the learned clauses
        accumulated so far.
        """
        self.solve_calls += 1
        stats_base: _StatsBase = (self.conflicts, self.decisions, self.propagations)
        for literal in assumptions:
            if literal == 0:
                raise ValueError("0 is not a valid assumption literal")
            self.reserve_vars(abs(literal))
        if faults_enabled() and fault_fires("solver_unknown"):
            self.budget_exhaustions += 1
            self._extra_budget_exhaustions += 1
            return self._unknown_result(stats_base)
        if self._trivially_unsat:
            return self._unsat_result(stats_base)
        if budget is not None and budget.unbounded:
            budget = None
        if self._core is not None:
            return self._solve_native(assumptions, budget, stats_base)
        deadline = None
        if budget is not None and budget.max_seconds is not None:
            deadline = time.monotonic() + budget.max_seconds
        self._backtrack(0)
        # No pending propagation can exist here: add_clause drains the queue
        # after every unit it enqueues, so any level-0 conflict would already
        # have flagged _trivially_unsat (and one surfacing in the main loop
        # below is handled the same way).

        # Geometric restarts: the first comes after 100 conflicts, and the
        # limit grows by 1.5x after every restart.
        restart_limit = 100
        conflicts_since_restart = 0
        assumption_queue = [_code(literal) for literal in assumptions]
        trail = self._trail
        trail_lim = self._trail_lim
        values = self._value
        level = self._level
        reason = self._reason
        phase = self._phase
        propagate = self._propagate

        while True:
            conflict = propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if not trail_lim:
                    self._trivially_unsat = True
                    return self._unsat_result(stats_base)
                if budget is not None and self._budget_exhausted(
                    budget, stats_base, deadline
                ):
                    self.budget_exhaustions += 1
                    self._backtrack(0)
                    return self._unknown_result(stats_base)
                learned, backtrack_level, lbd = self._analyze(conflict)
                self._backtrack(backtrack_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._trivially_unsat = True
                        return self._unsat_result(stats_base)
                else:
                    self._enqueue(learned[0], self._attach_clause(learned, learned=True, lbd=lbd))
                self._activity_increment /= self._activity_decay
                if conflicts_since_restart >= restart_limit:
                    conflicts_since_restart = 0
                    self.restarts += 1
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
                    if self._forget_limit:
                        self._reduce_learned_lbd()
                    else:
                        self._reduce_learned()
                continue

            # Apply pending assumptions as decisions.
            decision_level = len(trail_lim)
            if decision_level < len(assumption_queue):
                literal = assumption_queue[decision_level]
                value = values[literal]
                if value == _FALSE:
                    # Failed under the assumptions only; the clause database
                    # may well be satisfiable under other assumptions.
                    return self._unsat_result(stats_base)
                trail_lim.append(len(trail))
                if value == _UNASSIGNED:
                    self._enqueue(literal, None)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                return self._sat_result(stats_base)
            self.decisions += 1
            trail_lim.append(len(trail))
            # The variable is unassigned, so deciding it on its saved phase
            # leaves that phase as it is.
            literal = phase[variable]
            values[literal] = _TRUE
            values[literal ^ 1] = _FALSE
            trail.append(literal)
            level[variable] = decision_level + 1
            reason[variable] = None

    def _solve_native(
        self,
        assumptions: Sequence[int],
        budget: Optional[SolveBudget],
        stats_base: _StatsBase,
    ) -> SatResult:
        """Delegate the search to the compiled core (transcript-identical)."""
        max_conflicts = -1
        max_propagations = -1
        max_seconds = -1.0
        if budget is not None:
            if budget.max_conflicts is not None:
                max_conflicts = budget.max_conflicts
            if budget.max_propagations is not None:
                max_propagations = budget.max_propagations
            if budget.max_seconds is not None:
                max_seconds = budget.max_seconds
        status, model = self._core.solve(
            tuple(assumptions), max_conflicts, max_propagations, max_seconds
        )
        self._sync_counters()
        if status == 1:
            return self._sat_result(stats_base, model=model)
        if status == 0:
            return self._unsat_result(stats_base)
        return self._unknown_result(stats_base)

    # -------------------------------------------------------------- #
    # Results / statistics
    # -------------------------------------------------------------- #
    def _budget_exhausted(
        self,
        budget: SolveBudget,
        stats_base: _StatsBase,
        deadline: Optional[float],
    ) -> bool:
        if (
            budget.max_conflicts is not None
            and self.conflicts - stats_base[0] >= budget.max_conflicts
        ):
            return True
        if (
            budget.max_propagations is not None
            and self.propagations - stats_base[2] >= budget.max_propagations
        ):
            return True
        if deadline is not None and time.monotonic() >= deadline:
            return True
        return False

    def stats(self) -> Dict[str, int]:
        """Cumulative statistics over the lifetime of this solver."""
        return {
            "solve_calls": self.solve_calls,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "budget_exhaustions": self.budget_exhaustions,
            "num_vars": self._num_vars,
            "num_clauses": self._num_problem_clauses,
            "learned_clauses": self._num_learned,
            "forgotten_clauses": self.forgotten_clauses,
        }

    def _sat_result(
        self,
        stats_base: _StatsBase,
        model: Optional[Dict[int, bool]] = None,
    ) -> SatResult:
        if model is None:
            # Entry 2v of the pure solver's values is the value of v.
            model = {
                variable: value == _TRUE
                for variable, value in enumerate(self._value[2::2], 1)
                if value != _UNASSIGNED
            }
        return SatResult(
            True,
            model=model,
            conflicts=self.conflicts - stats_base[0],
            decisions=self.decisions - stats_base[1],
            propagations=self.propagations - stats_base[2],
        )

    def _unsat_result(self, stats_base: _StatsBase) -> SatResult:
        return SatResult(
            False,
            conflicts=self.conflicts - stats_base[0],
            decisions=self.decisions - stats_base[1],
            propagations=self.propagations - stats_base[2],
        )

    def _unknown_result(self, stats_base: _StatsBase) -> SatResult:
        return SatResult(
            False,
            status="unknown",
            conflicts=self.conflicts - stats_base[0],
            decisions=self.decisions - stats_base[1],
            propagations=self.propagations - stats_base[2],
        )


def solve(
    formula: Cnf,
    assumptions: Sequence[int] = (),
    budget: Optional[SolveBudget] = None,
) -> SatResult:
    """Convenience wrapper: build a solver and solve the formula once."""
    return SatSolver(formula).solve(assumptions, budget=budget)
