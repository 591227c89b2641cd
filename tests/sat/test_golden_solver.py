"""Absolute pins of the CDCL solver's search transcripts.

The lockstep harness in ``tests/native`` compares the pure solver with its
compiled twin, so it skips without the extension and cannot notice both
drifting together.  These tests compare against a committed fixture
instead (``golden_solver.jsonl``, one JSON object per ``solve`` call): the
verdict, a digest of the sorted model, the call's conflict, decision and
propagation counts, and the solver's ``stats()`` afterwards.  The inputs
are all seeded:

* a slice of the NeuroSAT-style pair corpus, both members of each pair;
* incremental interleavings of clause additions and assumption solves;
* conflict budgets that return ``unknown``, each followed by an
  unbudgeted re-solve of the same solver;
* level-0 refutations that stay permanent;
* a hard random 3-SAT instance (160 variables), with and without LBD
  clause forgetting;
* warm solvers whose variable range doubles between solves, and an
  assumption over variables no clause mentions.

Two more cases pin the encoder: the SHA-256 of ``Cnf.to_dimacs()`` for the
oracle-guided attack's miter CNF over two optimal S-boxes after one
observation, and again after eight, with the stats of the attack's
incremental solver (which by then has reduced its learned clauses).

Both backends must produce these transcripts, so the test passes under
either ``REPRO_BACKEND``.  Regenerate the fixture only after a deliberate
change of search or encoding::

    PYTHONPATH=src python tests/sat/test_golden_solver.py > tests/sat/golden_solver.jsonl
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import pytest

from repro.attacks.oracle_guided import OracleGuidedAttack
from repro.flow import obfuscate_with_assignment
from repro.netlist.simulate import extract_function
from repro.sat.generate import generate_corpus
from repro.sat.solver import SatSolver, SolveBudget
from repro.sboxes import optimal_sboxes

FIXTURE = Path(__file__).with_name("golden_solver.jsonl")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _call_record(solver: SatSolver, result) -> dict:
    return {
        "status": result.status,
        "model": _digest(sorted(result.model.items())),
        "conflicts": result.conflicts,
        "decisions": result.decisions,
        "propagations": result.propagations,
        "stats": solver.stats(),
    }


def _random_clause(rng: random.Random, num_vars: int, size: int) -> List[int]:
    variables = rng.sample(range(1, num_vars + 1), size)
    return [variable if rng.random() < 0.5 else -variable for variable in variables]


def _hard_3sat(num_vars: int, seed: int, ratio: float = 4.3) -> List[List[int]]:
    """The raw-propagation instance of ``benchmarks/bench_backend.py``."""
    rng = random.Random(seed)
    return [_random_clause(rng, num_vars, 3) for _ in range(int(num_vars * ratio))]


def _solved(clauses: Sequence[Sequence[int]], num_vars: int = 0, **options) -> List[dict]:
    solver = SatSolver(**options)
    solver.reserve_vars(num_vars)
    solver.add_clauses(clauses)
    return [_call_record(solver, solver.solve())]


def corpus_cases() -> List[Tuple[str, Callable[[], List[dict]]]]:
    cases = []
    for index, pair in enumerate(generate_corpus(16, min_vars=10, max_vars=40, seed=2017)):
        for verdict, clauses in (("unsat", pair.unsat_clauses), ("sat", pair.sat_clauses)):
            cases.append(
                (f"corpus/{index}/{verdict}",
                 lambda clauses=clauses, pair=pair: _solved(clauses, pair.num_vars))
            )
    return cases


def incremental_records(seed: int) -> List[dict]:
    """Clause batches interleaved with solves under random assumptions."""
    rng = random.Random(seed)
    num_vars = rng.randint(5, 18)
    solver = SatSolver()
    records = []
    for _ in range(rng.randint(2, 4)):
        for _ in range(rng.randint(3, 25)):
            solver.add_clause(_random_clause(rng, num_vars, rng.randint(1, min(4, num_vars))))
        assumptions = []
        if rng.random() < 0.6:
            chosen = rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
            assumptions = [
                variable if rng.random() < 0.5 else -variable for variable in chosen
            ]
        records.append(_call_record(solver, solver.solve(assumptions)))
    return records


def budget_records(seed: int) -> List[dict]:
    """A conflict-budgeted solve, then an unbudgeted re-solve."""
    rng = random.Random(seed)
    num_vars = rng.randint(20, 40)
    solver = SatSolver()
    solver.add_clauses(
        _random_clause(rng, num_vars, 3) for _ in range(int(num_vars * 4.4))
    )
    budget = SolveBudget(max_conflicts=rng.randint(1, 25))
    records = [_call_record(solver, solver.solve(budget=budget))]
    records.append(_call_record(solver, solver.solve()))
    return records


def pigeonhole(pigeons: int, holes: int) -> List[List[int]]:
    """PHP(p, h): unsatisfiable for p > h and refuted only by search."""
    var = lambda pigeon, hole: pigeon * holes + hole + 1
    clauses = [[var(pigeon, hole) for hole in range(holes)] for pigeon in range(pigeons)]
    for hole in range(holes):
        for one in range(pigeons):
            for two in range(one + 1, pigeons):
                clauses.append([-var(one, hole), -var(two, hole)])
    return clauses


def permanent_unsat_records(clauses: Sequence[Sequence[int]]) -> List[dict]:
    """Refute at level 0, then ask again with assumptions and a new clause."""
    solver = SatSolver()
    solver.add_clauses(clauses)
    records = [_call_record(solver, solver.solve())]
    records.append(_call_record(solver, solver.solve([1])))
    solver.add_clause([-1, 2])
    records.append(_call_record(solver, solver.solve()))
    return records


def grow_records(seed: int) -> List[dict]:
    """Solve, then double the variable range twice, solving after each.

    Each growth adds clauses that pair a negated old variable with two
    literals over the whole new range, and the solve after it assumes
    variables that no clause mentions yet.  So the per-variable and
    per-literal arrays grow under a warm solver's learned clauses, watches
    and saved phases.
    """
    rng = random.Random(seed)
    num_vars = 24
    solver = SatSolver()
    solver.add_clauses(_random_clause(rng, num_vars, 3) for _ in range(int(num_vars * 4.2)))
    records = [_call_record(solver, solver.solve())]
    for _ in range(2):
        old, num_vars = num_vars, 2 * num_vars
        for _ in range(int((num_vars - old) * 4.2)):
            solver.add_clause([-rng.randint(1, old)] + _random_clause(rng, num_vars, 2))
        fresh = num_vars + 1 + rng.randrange(num_vars)
        records.append(_call_record(solver, solver.solve([fresh, -(fresh + 1)])))
    return records


def beyond_range_records() -> List[dict]:
    """Assumptions over variables beyond every clause."""
    solver = SatSolver()
    solver.add_clause([1, 2])
    return [_call_record(solver, solver.solve([-5, 3]))]


def attack_miter_records(max_queries: int) -> List[dict]:
    """The DIP loop on two optimal S-boxes, stopped after ``max_queries`` observations."""
    mapping = obfuscate_with_assignment(optimal_sboxes(2), effort="fast").mapping
    configuration = mapping.configuration_for_select(1).as_cell_functions()
    truth = extract_function(mapping.netlist, cell_functions=configuration).lookup_table()
    plausible = {
        name: list(mapping.plausible_functions_of(name))
        for name in mapping.camouflaged_instances()
    }
    attack = OracleGuidedAttack(mapping.netlist, plausible, max_queries=max_queries)
    outcome = attack.run(lambda word: truth[word])
    cnf = attack._cnf
    return [
        {
            "queries": outcome.queries,
            "num_vars": cnf.num_vars,
            "num_clauses": cnf.num_clauses,
            "dimacs_sha256": hashlib.sha256(cnf.to_dimacs().encode()).hexdigest(),
            "stats": dict(outcome.solver_stats),
        }
    ]


def golden_cases() -> List[Tuple[str, Callable[[], List[dict]]]]:
    """Every pinned case, by name, in fixture order."""
    cases = corpus_cases()
    cases += [
        (f"incremental/{seed}", lambda seed=seed: incremental_records(seed))
        for seed in range(24)
    ]
    cases += [(f"budget/{seed}", lambda seed=seed: budget_records(seed)) for seed in range(12)]
    cases += [
        ("permanent_unsat/units", lambda: permanent_unsat_records([[1], [-1]])),
        ("permanent_unsat/pigeonhole5x4",
         lambda: permanent_unsat_records(pigeonhole(5, 4))),
        ("hard3sat/geometric", lambda: _solved(_hard_3sat(160, seed=20170327))),
        ("hard3sat/forget",
         lambda: _solved(_hard_3sat(160, seed=20170327), clause_forget=1000)),
        ("encode/attack_present2_miter", lambda: attack_miter_records(1)),
    ]
    cases += [(f"grow/{seed}", lambda seed=seed: grow_records(seed)) for seed in range(1, 4)]
    cases += [
        ("assume/beyond_range", beyond_range_records),
        ("encode/attack_present2_dip8", lambda: attack_miter_records(8)),
    ]
    return cases


def golden_lines():
    """Every fixture line, in fixture order."""
    for name, records in golden_cases():
        for record in records():
            yield json.dumps({"case": name, **record})


@lru_cache(maxsize=None)
def _pinned() -> Dict[str, List[dict]]:
    pinned: Dict[str, List[dict]] = {}
    for line in FIXTURE.read_text().splitlines():
        record = json.loads(line)
        pinned.setdefault(record.pop("case"), []).append(record)
    return pinned


CASES = dict(golden_cases())


def test_fixture_covers_every_case():
    assert set(_pinned()) == set(CASES)


def test_inputs_reach_the_paths_they_pin():
    pinned = _pinned()
    assert any(
        calls[0]["status"] == "unknown" and calls[1]["status"] != "unknown"
        for name, calls in pinned.items()
        if name.startswith("budget/")
    )
    assert {calls[0]["status"] for name, calls in pinned.items() if name.startswith("corpus/")} == {
        "sat", "unsat"
    }
    for name in ("permanent_unsat/units", "permanent_unsat/pigeonhole5x4"):
        assert [call["status"] for call in pinned[name]] == ["unsat"] * 3
        # The later calls answer from the permanent flag, without search.
        assert all(call["conflicts"] == call["decisions"] == 0 for call in pinned[name][1:])
    assert pinned["permanent_unsat/pigeonhole5x4"][0]["conflicts"] > 0
    geometric = pinned["hard3sat/geometric"][0]["stats"]
    # The activity increment grows by 1/0.95 per conflict and passes the
    # 1e100 rescale threshold after about 4,490 conflicts.
    assert geometric["conflicts"] > 4500
    assert geometric["restarts"] > 0
    forget = pinned["hard3sat/forget"][0]["stats"]
    assert forget["forgotten_clauses"] > 0
    # A warm solver answers SAT after its range grew under learned clauses.
    assert any(
        before["stats"]["learned_clauses"] > 0
        and after["status"] == "sat"
        and after["stats"]["num_vars"] > 2 * before["stats"]["num_vars"]
        for name, calls in pinned.items()
        if name.startswith("grow/")
        for before, after in zip(calls, calls[1:])
    )
    # Far fewer learned clauses remain than conflicts made, and LBD forgot
    # none of them: the size-based reduction ran.
    dip8 = pinned["encode/attack_present2_dip8"][0]["stats"]
    assert dip8["forgotten_clauses"] == 0
    assert 2 * dip8["learned_clauses"] < dip8["conflicts"]


@pytest.mark.parametrize("name", list(CASES))
def test_transcript_matches_fixture(name):
    assert CASES[name]() == _pinned()[name]


if __name__ == "__main__":
    for line in golden_lines():
        print(line)
