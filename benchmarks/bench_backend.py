"""Native-vs-pure backend benchmark (compiled twin speedups).

The compiled core (``repro._native._core``) claims two things: transcript
identity with the pure-Python reference and a large constant-factor
speedup.  This benchmark measures both on two workloads:

* raw CDCL propagation on a hard random 3-SAT instance (the solver's
  inner loop with no Python framing around it),
* the oracle-guided DIP-loop attack (the paper's adversary, end to end:
  miter construction in Python, solving in whichever backend is active).

Every measurement first asserts that both backends produced *identical*
transcripts (same verdicts, models, conflict/decision/propagation
counts) — a speedup over a different search is meaningless.
The whole module skips cleanly when the extension is not built.  Build it
and print the measured speedups with::

    python setup.py build_ext --inplace
    PYTHONPATH=src python -m pytest benchmarks/bench_backend.py -q -s
"""

from __future__ import annotations

import random
import time

import pytest

from repro.attacks.oracle_guided import attack_mapping
from repro.backend import native_import_error, native_module
from repro.flow import obfuscate_with_assignment
from repro.sat.solver import SatSolver
from repro.sboxes import optimal_sboxes

pytestmark = pytest.mark.skipif(
    native_module() is None,
    reason=(
        "native extension not built; run `python setup.py build_ext --inplace` "
        f"(import error: {native_import_error()})"
    ),
)

# The DIP-loop acceptance floor; raw propagation typically lands at 10x+.
MIN_ATTACK_SPEEDUP = 3.0

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


def _transcript(stats):
    return {key: stats[key] for key in TRANSCRIPT_KEYS}


@pytest.fixture(scope="module")
def obfuscated_pair():
    result = obfuscate_with_assignment(optimal_sboxes(2), effort="fast")
    return result


def _hard_3sat(num_vars: int, seed: int, ratio: float = 4.3):
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(num_vars * ratio)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(
            [
                variable if rng.random() < 0.5 else -variable
                for variable in variables
            ]
        )
    return clauses


def test_backend_raw_propagation():
    """The CDCL inner loop alone: one hard 3-SAT solve per backend."""
    clauses = _hard_3sat(160, seed=20170327)

    def solve(backend):
        solver = SatSolver(backend=backend)
        for clause in clauses:
            solver.add_clause(clause)
        start = time.perf_counter()
        result = solver.solve()
        return result, solver.stats(), time.perf_counter() - start

    # Warm both paths once so allocator/cache effects hit neither side.
    solve("pure")
    solve("native")
    result_pure, stats_pure, pure_seconds = solve("pure")
    result_native, stats_native, native_seconds = solve("native")

    assert result_native.status == result_pure.status
    assert result_native.model == result_pure.model
    assert _transcript(stats_native) == _transcript(stats_pure), (
        "backends diverged on the raw-propagation workload"
    )
    speedup = pure_seconds / native_seconds if native_seconds else float("inf")
    print(
        f"\nraw propagation: status={result_pure.status} "
        f"conflicts={stats_pure['conflicts']} "
        f"propagations={stats_pure['propagations']} "
        f"pure={pure_seconds:.3f}s native={native_seconds:.3f}s "
        f"speedup={speedup:.1f}x"
    )


def test_backend_dip_loop_attack(obfuscated_pair, monkeypatch):
    """The paper's adversary end to end, once per backend.

    ``attack_mapping`` builds its solvers internally, so the backend is
    selected through ``REPRO_BACKEND`` — exactly how a user would flip a
    whole run.  The attack transcripts (DIP queries and every solver
    counter) must be identical; the native run must be at least
    ``MIN_ATTACK_SPEEDUP`` times faster.
    """
    result = obfuscated_pair

    def run_attack(backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        start = time.perf_counter()
        outcome = attack_mapping(
            result.mapping, true_select=1, max_queries=64, presample=0
        )
        return outcome, time.perf_counter() - start

    # Warm both paths (first run pays module/page-cache costs).
    run_attack("pure")
    run_attack("native")
    pure_outcome, pure_seconds = run_attack("pure")
    native_outcome, native_seconds = run_attack("native")

    assert pure_outcome.success and native_outcome.success
    assert native_outcome.num_queries == pure_outcome.num_queries
    assert dict(native_outcome.solver_stats) == dict(pure_outcome.solver_stats), (
        "backends produced different attack transcripts"
    )
    speedup = pure_seconds / native_seconds if native_seconds else float("inf")
    print(
        f"\nDIP loop: dips={pure_outcome.num_queries} "
        f"conflicts={pure_outcome.solver_stats['conflicts']} "
        f"pure={pure_seconds:.3f}s native={native_seconds:.3f}s "
        f"speedup={speedup:.1f}x (floor {MIN_ATTACK_SPEEDUP:.0f}x)"
    )
    assert speedup >= MIN_ATTACK_SPEEDUP, (
        f"native DIP-loop speedup {speedup:.2f}x is below the "
        f"{MIN_ATTACK_SPEEDUP:.0f}x acceptance floor"
    )
