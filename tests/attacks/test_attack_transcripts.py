"""Exact work of the full adversary on two optimal S-boxes.

``tests/sat/golden_solver.jsonl`` stops the DIP loop after eight
observations; these pins cover the designer-side plausibility oracle and
the whole DIP loop to success.  The search is deterministic, so a drift in
any count means the search changed, not only its speed.  Summed, the two
transcripts are the solver counts of perfbench's ``attack_present2``
workload traced at seed 1.  Both backends must produce them.
"""

import pytest

from repro.attacks import PlausibleFunctionOracle
from repro.attacks.oracle_guided import attack_mapping
from repro.flow import obfuscate_with_assignment
from repro.sat.solver import BUDGET_ENV_VAR
from repro.sboxes import optimal_sboxes

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
    return functions, obfuscate_with_assignment(functions, effort="fast")


@pytest.fixture(autouse=True)
def default_search(monkeypatch):
    """Unset the solve budget, the one setting that changes these transcripts."""
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)


def _transcript(stats, keys):
    return {key: stats[key] for key in keys}


def test_plausibility_oracle_transcript(obfuscated_pair):
    functions, result = obfuscated_pair
    oracle = PlausibleFunctionOracle.from_mapping(result.mapping)
    views = result.assignment.apply(list(functions))
    verdicts = [bool(oracle.is_plausible(view)) for view in views]
    assert verdicts == [True, True], "a viable function became distinguishable"
    assert _transcript(oracle.solver_stats(), ORACLE_TRANSCRIPT) == ORACLE_TRANSCRIPT


def test_dip_loop_transcript(obfuscated_pair):
    # presample=0: the pinned trajectory is the pure DIP loop, while
    # attack_mapping presamples by default.
    _, result = obfuscated_pair
    outcome = attack_mapping(result.mapping, true_select=1, max_queries=64, presample=0)
    assert outcome.success, "the oracle-guided adversary failed to recover the function"
    assert outcome.num_queries == DIP_LOOP_QUERIES
    assert _transcript(outcome.solver_stats, DIP_LOOP_TRANSCRIPT) == DIP_LOOP_TRANSCRIPT
