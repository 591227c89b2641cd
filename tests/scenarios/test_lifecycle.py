"""One job lifecycle, run through the local runner and the service.

Each row of ``LIFECYCLE`` is one job behaviour under the same retry policy
and solve budget.  Every case runs through the local campaign runner (with
and without a state directory) and through a coordinator with one
in-process worker agent.  Each run must land on the row's terminal status,
attempt count, ``.attempts.json`` history, budget escalation and robustness
counters, and the runs' normalized JSON and CSV artifacts must be equal.
"""

import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest

from repro.jobstore import JobStore, RetryPolicy
from repro.obs.trace import (
    TRACE_DIR_ENV_VAR,
    TRACE_ENV_VAR,
    job_span_id,
    load_trace,
    reset_trace_state,
)
from repro.sat.solver import BUDGET_ENV_VAR, SolveBudget, SolveBudgetExceeded
from repro.scenarios.campaign import (
    JOB_KINDS,
    CampaignJob,
    CampaignResult,
    CampaignSpec,
    run_campaign,
)
from repro.service.client import ServiceClient
from repro.service.protocol import normalized_artifact_csv, normalized_artifact_json
from repro.service.server import ServiceThread
from repro.service.worker import WorkerAgent

POLICY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)
BUDGET = SolveBudget(max_conflicts=100)
ESCALATED = ["conflicts=100", "conflicts=200", "conflicts=400"]


@dataclass(frozen=True)
class Case:
    """The expected lifecycle of the ``subject`` job of one campaign."""

    kind: str
    status: str
    attempts: int
    history: Tuple[str, ...]
    #: Solve budgets the attempts ran under (None: the kind does not record).
    budgets: Optional[List[str]]
    robustness: Dict[str, int]
    #: Text the terminal error must contain ("" for successful jobs).
    error: str = ""


LIFECYCLE = {
    "transient_then_ok": Case(
        "probe", "ok", 2, ("retry", "ok"), None,
        {"retries": 1, "failures_transient": 1},
    ),
    "permanent": Case(
        "bad", "error", 1, ("error",), ["conflicts=100"],
        {"failures_permanent": 1}, error="ValueError: bad parameters",
    ),
    "budget_exhausted": Case(
        "hard", "timed_out", 3, ("retry", "retry", "timed_out"), ESCALATED,
        {"retries": 2, "failures_transient": 3, "timed_out": 1},
        error="SolveBudgetExceeded",
    ),
    "budget_rescued": Case(
        "big", "ok", 3, ("retry", "retry", "ok"), ESCALATED,
        {"retries": 2, "failures_transient": 2},
    ),
}


@pytest.fixture
def budgets_seen(monkeypatch):
    """Register the test job kinds; returns the budgets their attempts saw."""
    seen: List[str] = []

    def _bad(params, task_jobs):
        seen.append(os.environ.get(BUDGET_ENV_VAR, ""))
        raise ValueError("bad parameters")

    def _hard(params, task_jobs):
        seen.append(os.environ.get(BUDGET_ENV_VAR, ""))
        raise SolveBudgetExceeded("miter did not resolve in budget")

    def _big(params, task_jobs):
        spec = os.environ.get(BUDGET_ENV_VAR, "")
        seen.append(spec)
        if SolveBudget.from_spec(spec).max_conflicts < 300:
            raise SolveBudgetExceeded("budget too small")
        return 1, {"x": 1}

    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    for name, handler in (("bad", _bad), ("hard", _hard), ("big", _big)):
        monkeypatch.setitem(JOB_KINDS, name, handler)
    return seen


def case_spec(name: str, marker) -> CampaignSpec:
    """The case's subject job plus a steady sibling it must not disturb."""
    case = LIFECYCLE[name]
    params = {"value": 7, "fail_marker": str(marker)} if case.kind == "probe" else {}
    return CampaignSpec(
        name=f"lifecycle_{name}",
        jobs=[
            CampaignJob("subject", case.kind, params),
            CampaignJob("steady", "probe", {"value": 8}),
        ],
    )


@dataclass
class Run:
    outcome: CampaignResult
    json: str
    csv: str
    state_dir: Optional[str]
    budgets: List[str]


def run_local(spec: CampaignSpec, state_dir: Optional[str], seen: List[str]) -> Run:
    del seen[:]
    outcome = run_campaign(
        spec, state_dir=state_dir, jobs=1, retry_policy=POLICY, solve_budget=BUDGET
    )
    return Run(outcome, outcome.to_json(), outcome.to_csv(), state_dir, list(seen))


def run_service(spec: CampaignSpec, root, seen: List[str], case: Case) -> Run:
    del seen[:]
    with ServiceThread(
        root=str(root), poll=0.02, retry_policy=POLICY, solve_budget=BUDGET
    ) as service:
        client = ServiceClient(service.url)
        campaign_id = client.submit(spec.to_dict())["campaign"]
        # Subscribe before the worker starts: the first frame is the
        # snapshot, so every later transition arrives as an event.
        stream = client.events(campaign_id)
        assert next(stream)[0] == "snapshot"
        events = []
        watcher = threading.Thread(target=lambda: events.extend(stream), daemon=True)
        watcher.start()
        agent = WorkerAgent(service.url, poll=0.02, remote_cache=False, log=None)
        counters = agent.run(campaign=campaign_id, once=True)
        watcher.join(timeout=30)
        assert not watcher.is_alive()
        status = client.status(campaign_id)
        outcome = service.service.campaign(campaign_id).result()
        json_text = client.artifact(campaign_id, "json")
        csv_text = client.artifact(campaign_id, "csv")

    ok = case.status == "ok"
    assert counters == {
        "executed": 1 + ok,
        "failed": case.attempts - ok,
        "discarded": 0,
    }
    assert status["complete"] is True
    subject_state = "done" if ok else case.status
    assert status["states"] == {"subject": subject_state, "steady": "done"}
    assert status["robustness"] == outcome.robustness
    if ok:
        owner = outcome.result_for("subject").owner
        assert ("done", {"job": "subject", "owner": owner}) in events
    else:
        (failed,) = [data for event, data in events if event == "failed"]
        assert failed["job"] == "subject" and failed["status"] == case.status
        assert case.error in failed["error"]
    assert events[-1][0] == "campaign" and events[-1][1]["status"] == "complete"
    state_dir = os.path.join(str(root), "campaigns", campaign_id, "state")
    return Run(outcome, json_text, csv_text, state_dir, list(seen))


def check_run(run: Run, case: Case, remote: bool) -> None:
    subject = run.outcome.result_for("subject")
    steady = run.outcome.result_for("steady")
    assert (subject.status, subject.attempts) == (case.status, case.attempts)
    assert case.error in subject.error
    assert (steady.status, steady.attempts) == ("ok", 1)
    assert run.outcome.all_ok is (case.status == "ok")
    if case.budgets is not None:
        assert run.budgets == case.budgets
    counters = {
        key: value
        for key, value in run.outcome.robustness.items()
        if not key.startswith("lease_")
    }
    assert counters == case.robustness
    if run.state_dir is None:
        assert subject.owner == ""
        return
    assert run.outcome.robustness["lease_claims"] == case.attempts + 1
    store = JobStore(run.state_dir, owner="inspector")
    history = tuple(record["status"] for record in store.attempts("subject"))
    assert history == case.history
    state_path = os.path.join(run.state_dir, "subject.json")
    if case.status != "ok":
        assert not os.path.exists(state_path)
        return
    with open(state_path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    assert state["status"] == "ok"
    assert state["attempts"] == case.attempts
    assert state["owner"] == subject.owner
    assert state["owner"].startswith("remote:") is remote


@pytest.mark.parametrize("name", sorted(LIFECYCLE))
def test_lifecycle_table(name, tmp_path, budgets_seen):
    case = LIFECYCLE[name]
    local = run_local(
        case_spec(name, tmp_path / "local.marker"),
        str(tmp_path / "state"),
        budgets_seen,
    )
    stateless = run_local(
        case_spec(name, tmp_path / "stateless.marker"), None, budgets_seen
    )
    service = run_service(
        case_spec(name, tmp_path / "service.marker"),
        tmp_path / "root",
        budgets_seen,
        case,
    )
    check_run(local, case, remote=False)
    check_run(stateless, case, remote=False)
    check_run(service, case, remote=True)
    assert service.outcome.robustness == local.outcome.robustness
    for run in (stateless, service):
        assert normalized_artifact_json(run.json) == (
            normalized_artifact_json(local.json)
        )
        assert normalized_artifact_csv(run.csv) == normalized_artifact_csv(local.csv)


def test_traced_runs_record_the_same_retries_and_job_spans(
    tmp_path, monkeypatch, budgets_seen
):
    """Either side records each retry under the job's span, numbered as
    the next attempt, and one job span per job under the campaign span."""
    name = "budget_rescued"
    spec = case_spec(name, tmp_path / "unused.marker")
    monkeypatch.setenv(TRACE_ENV_VAR, "1")
    traces = {}
    try:
        for side in ("local", "service"):
            monkeypatch.setenv(TRACE_DIR_ENV_VAR, str(tmp_path / side))
            reset_trace_state()
            if side == "local":
                run_local(spec, str(tmp_path / "state"), budgets_seen)
            else:
                run_service(spec, tmp_path / "root", budgets_seen, LIFECYCLE[name])
            traces[side] = load_trace(str(tmp_path / side))
    finally:
        monkeypatch.delenv(TRACE_ENV_VAR)
        reset_trace_state()

    error = "SolveBudgetExceeded: budget too small"
    expected_retries = [
        {
            "job": "subject",
            "attempt": attempt,
            "delay": round(POLICY.delay("subject", attempt - 1), 4),
            "error": error,
        }
        for attempt in (2, 3)
    ]
    for side, records in traces.items():
        (campaign,) = [record for record in records if record["name"] == "campaign"]
        trace_id = campaign["trace"]
        retries = [record for record in records if record["name"] == "retry"]
        assert [record["attrs"] for record in retries] == expected_retries, side
        assert {record["parent"] for record in retries} == {
            job_span_id(trace_id, "subject")
        }, side
        jobs = {
            record["attrs"]["job"]: (record["span"], record["parent"], record["attrs"])
            for record in records
            if record["name"] == "job"
        }
        assert jobs == {
            job: (
                job_span_id(trace_id, job),
                campaign["span"],
                {"job": job, "status": "ok"},
            )
            for job in ("subject", "steady")
        }, side
