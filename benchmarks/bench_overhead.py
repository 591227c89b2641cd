"""Overhead guards: machinery that is switched off must cost nothing.

Two mechanisms hook the hottest path in the repo, the DIP-loop attack's
CDCL search:

* the solve budget: the unbudgeted path pays one ``is None`` test per
  conflict;
* observability: a ``tracing_enabled()`` environment test per span site,
  and always-on metric counters at the solver and simulation funnels.

Neither disabled cost can be isolated directly, so each is bounded from
above.  The attack with the mechanism fully *on* (a huge, never-binding
``REPRO_SOLVE_BUDGET``, which the attack reads when it is built and which
runs the whole per-conflict check; ``REPRO_TRACE=1``, which takes every
gated branch and keeps the trace sink live) must stay within
2% plus 10 ms of timer noise of the run with it off.  Both runs must
produce the same transcript, so each comparison times the same search.

Timing guards, not unit tests, so tier-1 does not run them::

    PYTHONPATH=src python -m pytest benchmarks/bench_overhead.py -q -s
"""

from __future__ import annotations

import time

import pytest

from repro.attacks.oracle_guided import attack_mapping
from repro.flow import obfuscate_with_assignment
from repro.obs.trace import (
    TRACE_DIR_ENV_VAR,
    TRACE_ENV_VAR,
    reset_trace_state,
    span,
)
from repro.sat.solver import BUDGET_ENV_VAR, SolveBudget
from repro.sboxes import optimal_sboxes

ROUNDS = 4
ALLOWED_FRACTION = 0.02
ALLOWED_SECONDS = 0.010


@pytest.fixture(scope="module")
def obfuscated_pair():
    return obfuscate_with_assignment(optimal_sboxes(2), effort="fast")


@pytest.fixture(autouse=True)
def default_search(monkeypatch):
    """Both arms of both guards time the default, unbudgeted search."""
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)


def _attack(result):
    # The span is a shared no-op while REPRO_TRACE is unset, so a disabled
    # arm times exactly the code a production run executes.
    with span("overhead_guard"):
        return attack_mapping(result.mapping, true_select=1, max_queries=64, presample=0)


def _timed(call):
    start = time.perf_counter()
    outcome = call()
    return outcome, time.perf_counter() - start


def assert_free_when_off(arm, mechanism):
    """Bound the cost of ``mechanism`` by paired deltas of its on and off runs.

    ``arm(on)`` switches the mechanism on or off and returns the attack
    call to time.  Each round times both arms back to back, order
    alternating, so ambient load and CPU-frequency drift hit both runs of
    a pair about equally and mostly cancel in the difference.  The minimum
    delta over the rounds is the cleanest single observation of the cost:
    run-to-run noise on this workload dwarfs 2%, but a genuine
    multi-percent regression would inflate every delta.
    """
    assert arm(False)().success  # warm-up
    deltas = []
    best_off = float("inf")
    for round_index in range(ROUNDS):
        order = (False, True) if round_index % 2 == 0 else (True, False)
        timed = {on: _timed(arm(on)) for on in order}
        off, off_seconds = timed[False]
        on, on_seconds = timed[True]
        best_off = min(best_off, off_seconds)
        deltas.append(on_seconds - off_seconds)

    assert off.success and on.success
    assert on.num_queries == off.num_queries
    for key in ("conflicts", "decisions", "propagations"):
        assert on.solver_stats[key] == off.solver_stats[key], (
            f"switching the {mechanism} on changed the solver transcript ({key})"
        )

    overhead = min(deltas)
    allowed = best_off * ALLOWED_FRACTION + ALLOWED_SECONDS
    print(
        f"\n{mechanism}: off={best_off:.4f}s deltas="
        + "/".join(f"{delta:+.4f}" for delta in deltas)
        + f" overhead={overhead:+.4f}s allowed={allowed:.4f}s"
    )
    assert overhead <= allowed, (
        f"{mechanism} overhead {overhead:.4f}s exceeds "
        f"{allowed:.4f}s (2% + 10ms) on the DIP loop"
    )


def test_solve_budget_overhead(obfuscated_pair, monkeypatch):
    huge = SolveBudget(
        max_conflicts=10 ** 9, max_propagations=10 ** 12, max_seconds=3600.0
    )
    assert SolveBudget.from_spec(huge.to_spec()) == huge

    def arm(bounded):
        if bounded:
            monkeypatch.setenv(BUDGET_ENV_VAR, huge.to_spec())
        else:
            monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        return lambda: _attack(obfuscated_pair)

    assert_free_when_off(arm, "solve budget")


def test_tracing_overhead(obfuscated_pair, monkeypatch, tmp_path):
    monkeypatch.setenv(TRACE_DIR_ENV_VAR, str(tmp_path / "trace"))

    def arm(traced):
        if traced:
            monkeypatch.setenv(TRACE_ENV_VAR, "1")
        else:
            monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        reset_trace_state()
        return lambda: _attack(obfuscated_pair)

    try:
        assert_free_when_off(arm, "tracing")
    finally:
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        reset_trace_state()
