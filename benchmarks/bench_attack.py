"""Adversary analysis benchmark (the paper's threat-model claims).

Two measurements on the same pair of viable S-boxes:

* the proposed flow (merge + GA + camouflage mapping) must leave *every*
  viable function plausible to the SAT-based adversary;
* random camouflaging of a single-function circuit must leave only the true
  function plausible, i.e. the adversary immediately learns the function.

The benchmark times the adversary's SAT queries (the decamouflaging cost the
related-work attacks measure).
"""

from __future__ import annotations

import time

import pytest

from repro.attacks import PlausibleFunctionOracle, random_camouflage_experiment
from repro.attacks.oracle_guided import attack_mapping
from repro.flow import obfuscate_with_assignment
from repro.flow.report import format_solver_stats
from repro.sat.solver import BUDGET_ENV_VAR, SolveBudget
from repro.sboxes import optimal_sboxes
from repro.synth import synthesize

# Exact solver transcripts of the two tests below under the default search
# (geometric restarts, no clause forgetting, no budget).  The search is
# deterministic, so a drift in any count means it changed, not only its
# speed.  Summed, they are the solver counts of perfbench's
# ``attack_present2`` workload traced at seed 1.
ORACLE_TRANSCRIPT = {
    "solve_calls": 2,
    "conflicts": 3890,
    "decisions": 12425,
    "propagations": 199822,
    "learned_clauses": 1979,
    "restarts": 10,
}
DIP_LOOP_QUERIES = 16
DIP_LOOP_TRANSCRIPT = {
    "solve_calls": 18,
    "conflicts": 31166,
    "decisions": 166061,
    "propagations": 2151306,
    "learned_clauses": 4714,
    "restarts": 66,
}


@pytest.fixture(scope="module")
def obfuscated_pair():
    functions = optimal_sboxes(2)
    result = obfuscate_with_assignment(functions, effort="fast")
    return functions, result


@pytest.fixture
def default_search(monkeypatch):
    """Unset the solve budget, the one knob that changes the pinned transcripts."""
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)


def _transcript(stats, keys):
    return {key: stats[key] for key in keys}


def test_attack_proposed_flow_keeps_all_viable_functions(benchmark, record, bench_json,
                                                         obfuscated_pair, default_search):
    functions, result = obfuscated_pair
    oracle = PlausibleFunctionOracle.from_mapping(result.mapping)
    views = result.assignment.apply(list(functions))

    def adversary_checks():
        return [bool(oracle.is_plausible(view)) for view in views]

    verdicts = benchmark.pedantic(adversary_checks, rounds=1, iterations=1)
    assert verdicts == [True, True], "a viable function became distinguishable"
    stats = oracle.solver_stats()
    assert _transcript(stats, ORACLE_TRANSCRIPT) == ORACLE_TRANSCRIPT
    benchmark.extra_info["plausible"] = verdicts
    benchmark.extra_info["solver"] = stats
    bench_json("attack_proposed_flow", {"plausible": verdicts, "solver": dict(stats)})
    record(
        "attack_proposed_flow",
        "\n".join(
            f"{function.name}: plausible={verdict}"
            for function, verdict in zip(functions, verdicts)
        )
        + "\n"
        + format_solver_stats([("plausibility oracle", stats)]),
    )


def test_attack_oracle_guided_dip_loop(benchmark, record, bench_json, obfuscated_pair,
                                      default_search):
    """The stronger (oracle-equipped) adversary: the incremental DIP loop.

    ``presample=0`` explicitly: this benchmark tracks the pure DIP-loop
    trajectory, while ``attack_mapping`` presamples by default (that
    variant is measured separately below).
    """
    functions, result = obfuscated_pair

    def run_attack():
        return attack_mapping(result.mapping, true_select=1, max_queries=64,
                              presample=0)

    outcome = benchmark.pedantic(run_attack, rounds=1, iterations=1)
    assert outcome.success, "the oracle-guided adversary failed to recover the function"
    assert outcome.num_queries == DIP_LOOP_QUERIES
    assert _transcript(outcome.solver_stats, DIP_LOOP_TRANSCRIPT) == DIP_LOOP_TRANSCRIPT
    benchmark.extra_info["num_queries"] = outcome.num_queries
    benchmark.extra_info["solver"] = outcome.solver_stats
    bench_json(
        "attack_oracle_guided",
        {"num_queries": outcome.num_queries, "solver": dict(outcome.solver_stats)},
    )
    record(
        "attack_oracle_guided",
        f"queries={outcome.num_queries}\n"
        + format_solver_stats([("DIP loop", outcome.solver_stats)]),
    )


def test_attack_oracle_guided_presample(benchmark, record, bench_json, obfuscated_pair):
    """The DIP loop with the fuzz presampling phase explicitly enabled.

    Random-simulation preprocessing constrains both configuration copies
    with cheap oracle observations before the first miter call; on these
    block sizes the whole input space is observed and the (expensive) miter
    UNSAT proof is skipped outright.  The recovered function is identical to
    the default attack's — only the query transcript differs.
    """
    functions, result = obfuscated_pair

    def run_attack():
        return attack_mapping(result.mapping, true_select=1, max_queries=64,
                              presample=32)

    outcome = benchmark.pedantic(run_attack, rounds=1, iterations=1)
    assert outcome.success, "the presampled adversary failed to recover the function"
    benchmark.extra_info["num_queries"] = outcome.num_queries
    benchmark.extra_info["presample"] = len(outcome.presample_queries)
    bench_json(
        "attack_oracle_presample",
        {
            "num_queries": outcome.num_queries,
            "presample_queries": len(outcome.presample_queries),
            "solver": dict(outcome.solver_stats),
        },
    )
    record(
        "attack_oracle_presample",
        f"presample={len(outcome.presample_queries)} dips={outcome.num_queries}\n"
        + format_solver_stats([("presampled DIP loop", outcome.solver_stats)]),
    )


def test_attack_budget_machinery_overhead(benchmark, record, bench_json,
                                          obfuscated_pair, monkeypatch):
    """Guard: the solve-budget machinery is free when budgets are unset.

    The unbudgeted hot path pays one ``is None`` test per conflict.  That
    cost cannot be isolated directly, so it is bounded from above: a huge,
    never-binding budget exercises the *full* per-conflict check (conflict
    + propagation counters and the wall-clock deadline), and the DIP-loop
    attack under it must stay within 2% (plus a small absolute epsilon for
    timer noise) of the unset run.  Both variants must produce an identical
    transcript — same queries, same solver statistics — so the comparison
    times the same search.
    """
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    functions, result = obfuscated_pair
    huge = SolveBudget(
        max_conflicts=10 ** 9, max_propagations=10 ** 12, max_seconds=3600.0
    )

    def run_attack(budget=None):
        return attack_mapping(result.mapping, true_select=1, max_queries=64,
                              presample=0, budget=budget)

    # Warmup + registered timing: one unset run through pytest-benchmark.
    unset = benchmark.pedantic(run_attack, rounds=1, iterations=1)
    assert unset.success

    # Paired deltas: each round times both variants back to back (order
    # alternating), so ambient load and CPU-frequency drift hit both runs of
    # a pair roughly equally and mostly cancel in the difference.  The
    # minimum delta over the rounds is the cleanest single observation of
    # the machinery cost — run-to-run noise on this workload dwarfs 2%, but
    # a genuine multi-percent regression would inflate *every* delta.
    def timed(budget):
        start = time.perf_counter()
        outcome = run_attack(budget=budget)
        return outcome, time.perf_counter() - start

    deltas = []
    best_unset = float("inf")
    bounded = None
    for round_index in range(4):
        if round_index % 2 == 0:
            unset, unset_seconds = timed(None)
            bounded, bounded_seconds = timed(huge)
        else:
            bounded, bounded_seconds = timed(huge)
            unset, unset_seconds = timed(None)
        best_unset = min(best_unset, unset_seconds)
        deltas.append(bounded_seconds - unset_seconds)

    assert unset.success and bounded.success
    assert bounded.num_queries == unset.num_queries
    for key in ("conflicts", "decisions", "propagations"):
        assert bounded.solver_stats[key] == unset.solver_stats[key], (
            f"a never-binding budget changed the solver transcript ({key})"
        )

    overhead = min(deltas)
    allowed = best_unset * 0.02 + 0.010
    benchmark.extra_info["best_unset_seconds"] = best_unset
    benchmark.extra_info["overhead_seconds"] = overhead
    bench_json(
        "attack_budget_overhead",
        {
            "best_unset_seconds": best_unset,
            "paired_deltas_seconds": deltas,
            "overhead_seconds": overhead,
            "allowed_seconds": allowed,
            "num_queries": unset.num_queries,
        },
    )
    record(
        "attack_budget_overhead",
        f"unset={best_unset:.4f}s deltas="
        + "/".join(f"{delta:+.4f}" for delta in deltas)
        + f" overhead={overhead:+.4f}s allowed={allowed:.4f}s",
    )
    assert overhead <= allowed, (
        f"budget machinery overhead {overhead:.4f}s exceeds "
        f"{allowed:.4f}s (2% + 10ms) on the DIP-loop benchmark"
    )


def test_attack_random_camouflage_fails(benchmark, record, bench_json):
    functions = optimal_sboxes(2)
    single = synthesize(functions[0], effort="fast").netlist

    def run_experiment():
        return random_camouflage_experiment(single, functions, fraction=0.5, seed=3)

    experiment = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert experiment.plausible[0] is True
    assert experiment.plausible[1] is False, (
        "random camouflaging unexpectedly made another viable function plausible"
    )
    benchmark.extra_info["plausible"] = experiment.plausible
    bench_json("attack_random_camouflage", {"plausible": list(experiment.plausible)})
    record(
        "attack_random_camouflage",
        "\n".join(
            f"{function.name}: plausible={verdict}"
            for function, verdict in zip(functions, experiment.plausible)
        ),
    )
