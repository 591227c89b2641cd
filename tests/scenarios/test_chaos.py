"""Chaos tests: injected faults must not change what a campaign computes.

Every test here drives a real campaign through a deterministic injected
fault (worker SIGKILL, torn state write, corrupted cache line, forced
solver UNKNOWN) and asserts the recovery invariants the execution layer
promises: artifacts byte-identical to a fault-free run (after stripping
wall-clock noise), only the damaged jobs re-execute, and — with several
processes sharing one state directory — every job runs exactly once.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.faults import FAULTS_DIR_ENV_VAR, FAULTS_ENV_VAR, reset_fault_state
from repro.ga.pinopt import SynthesisDiskCache
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
    CampaignSpec,
    run_campaign,
)

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

#: Subprocess driver: run a spec from JSON against a shared state dir.
DRIVER = """\
import json
import sys

from repro.scenarios.campaign import CampaignSpec, run_campaign

with open(sys.argv[1], "r", encoding="utf-8") as handle:
    spec = CampaignSpec.from_dict(json.load(handle))
outcome = run_campaign(
    spec,
    state_dir=sys.argv[2],
    jobs=1,
    progress=lambda message: print(message, flush=True),
)
print("ALL_OK", outcome.all_ok)
"""


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Chaos tests own the fault environment; never leak it between tests."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    monkeypatch.delenv(FAULTS_DIR_ENV_VAR, raising=False)
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    reset_fault_state()
    yield
    reset_fault_state()


def probe_spec(count=4, name="chaos", **extra):
    return CampaignSpec(
        name=name,
        jobs=[
            CampaignJob(f"probe_{index}", "probe", {"value": index, **extra})
            for index in range(count)
        ],
    )


def _drive_subprocess_campaign(tmp_path, spec, state_dir, extra_env=None, wait=True):
    """Launch the DRIVER script on (spec, state_dir) in a fresh process."""
    spec_path = tmp_path / "spec.json"
    if not spec_path.exists():
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    driver_path = tmp_path / "driver.py"
    if not driver_path.exists():
        driver_path.write_text(DRIVER, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env.pop(FAULTS_ENV_VAR, None)
    env.pop(FAULTS_DIR_ENV_VAR, None)
    env.update(extra_env or {})
    process = subprocess.Popen(
        [sys.executable, str(driver_path), str(spec_path), str(state_dir)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if not wait:
        return process
    output, _ = process.communicate(timeout=180)
    return process.returncode, output


# ------------------------------------------------------------------ #
# Artifact normalisation: strip wall-clock noise, keep everything else
# ------------------------------------------------------------------ #
def normalized_json(outcome):
    """Campaign JSON document with timing/provenance noise zeroed.

    Seconds are wall-clock measurements and the cached/robustness fields
    describe *how* the run got its results; everything else — statuses,
    payloads, job sets — must be byte-identical between a fault-free run
    and a chaos run that recovered.
    """
    document = json.loads(outcome.to_json())
    for key in ("total_seconds", "mean_seconds", "wall_seconds"):
        document[key] = 0.0
    document["job_seconds"] = {key: 0.0 for key in document["job_seconds"]}
    document["robustness"] = {}
    document["campaign"] = {}
    for row in document.get("results", []):
        row["seconds"] = 0.0
        row["cached"] = False
    return json.dumps(document, indent=2, sort_keys=True)


def normalized_csv(outcome):
    """Campaign CSV with the seconds and cached columns zeroed."""
    lines = outcome.to_csv().splitlines()
    header = lines[0].split(",")
    seconds_column = header.index("seconds")
    cached_column = header.index("cached")
    normalized = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[seconds_column] = "0"
        cells[cached_column] = "0"
        normalized.append(",".join(cells))
    return "\n".join(normalized)


# ------------------------------------------------------------------ #
# Worker crash recovery
# ------------------------------------------------------------------ #
class TestWorkerKill:
    def test_killed_worker_recovers_transparently(
        self, tmp_path, monkeypatch, four_cpus
    ):
        """A SIGKILLed worker mid-sweep must not change the artifacts.

        Four CPUs are reported, so ``jobs=2`` starts real worker processes
        even on a single-CPU host and the kill hits a worker (not this
        process); supervision respawns the pool and resubmits the lost job,
        and the ``once`` marker directory stops the respawned worker from
        dying on the same fault again.
        """
        spec = probe_spec()
        clean = run_campaign(spec, jobs=2)
        assert clean.all_ok

        monkeypatch.setenv(FAULTS_ENV_VAR, "worker_kill:job=probe_1,once")
        monkeypatch.setenv(FAULTS_DIR_ENV_VAR, str(tmp_path / "faults"))
        reset_fault_state()
        chaos = run_campaign(spec, jobs=2)
        assert chaos.all_ok
        assert chaos.robustness.get("worker_crashes", 0) >= 1
        assert normalized_json(chaos) == normalized_json(clean)
        assert normalized_csv(chaos) == normalized_csv(clean)

    def test_serial_sigkill_resumes_via_lease_reclaim(self, tmp_path):
        """SIGKILL of a serial campaign process: resume re-runs only the rest.

        The killed process leaves finished state files plus a lease held
        by a now-dead pid; the resuming process must adopt the finished
        prefix ("cached (state matches)"), reclaim the dead owner's lease,
        and produce artifacts identical to a never-interrupted run.
        """
        spec = probe_spec()
        state = tmp_path / "state"
        returncode, _ = _drive_subprocess_campaign(
            tmp_path,
            spec,
            state,
            extra_env={FAULTS_ENV_VAR: "worker_kill:job=probe_2"},
        )
        assert returncode == -signal.SIGKILL
        # The finished prefix is persisted; the killed job is not, and its
        # lease file is still on disk, held by the dead process.
        assert (state / "probe_0.json").exists()
        assert (state / "probe_1.json").exists()
        assert not (state / "probe_2.json").exists()
        assert (state / "probe_2.lease").exists()

        messages = []
        resumed = run_campaign(
            spec, state_dir=str(state), jobs=1, progress=messages.append
        )
        assert resumed.all_ok
        cached = [line for line in messages if "cached (state matches)" in line]
        assert len(cached) == 2
        # The dead owner's lease was reclaimed, and the attempt history
        # records the reclaim (owner telemetry for "no job ran twice").
        store = JobStore(str(state), owner="inspector")
        attempts = store.attempts("probe_2")
        assert any(record.get("reclaimed") for record in attempts)
        assert sum(record.get("status") == "ok" for record in attempts) == 1

        clean = run_campaign(spec, jobs=1)
        assert normalized_json(resumed) == normalized_json(clean)
        assert normalized_csv(resumed) == normalized_csv(clean)


# ------------------------------------------------------------------ #
# Tracing under chaos
# ------------------------------------------------------------------ #
class TestTraceChaos:
    def test_sigkill_reclaim_traces_two_attempts_under_one_job_span(
        self, tmp_path, monkeypatch
    ):
        """The crash story must be legible in the trace itself.

        Kill a traced campaign mid-job, resume it with tracing still on,
        and the merged trace must show: one trace id across both
        processes, the killed attempt as an *unfinished* span and the
        resumed attempt as a finished one — both parented under the job's
        single deterministic span — and the lease-reclaim event
        attributed to the surviving owner.
        """
        spec = probe_spec()
        state = tmp_path / "state"
        trace_directory = tmp_path / "trace"
        returncode, _ = _drive_subprocess_campaign(
            tmp_path,
            spec,
            state,
            extra_env={
                FAULTS_ENV_VAR: "worker_kill:job=probe_2",
                TRACE_ENV_VAR: "1",
                TRACE_DIR_ENV_VAR: str(trace_directory),
            },
        )
        assert returncode == -signal.SIGKILL

        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        monkeypatch.setenv(TRACE_DIR_ENV_VAR, str(trace_directory))
        reset_trace_state()
        try:
            resumed = run_campaign(spec, state_dir=str(state), jobs=1)
        finally:
            monkeypatch.delenv(TRACE_ENV_VAR)
            reset_trace_state()
        assert resumed.all_ok

        records = load_trace(str(trace_directory))
        # Both processes joined the one trace persisted in trace.json.
        trace_ids = {record["trace"] for record in records}
        assert len(trace_ids) == 1, trace_ids
        trace_id = trace_ids.pop()
        probe_2_span = job_span_id(trace_id, "probe_2")

        attempts = [
            record
            for record in records
            if record["name"] == "attempt"
            and record.get("attrs", {}).get("job") == "probe_2"
        ]
        assert len(attempts) == 2, attempts
        assert all(record["parent"] == probe_2_span for record in attempts)
        unfinished = [r for r in attempts if r.get("unfinished")]
        finished = [r for r in attempts if not r.get("unfinished")]
        assert len(unfinished) == 1 and len(finished) == 1
        # The killed attempt and the resumed attempt ran in different
        # processes; the unfinished one is the earlier.
        assert unfinished[0]["pid"] != finished[0]["pid"]
        assert unfinished[0]["start"] <= finished[0]["start"]

        # The reclaim edge: recorded under the job span, attributed to
        # the surviving owner that stole the dead owner's lease.  (The
        # killed round had also claimed probe_3's lease, so that job
        # carries its own reclaim event.)
        (reclaim,) = [
            r
            for r in records
            if r["name"] == "reclaim" and r["attrs"]["job"] == "probe_2"
        ]
        assert reclaim["parent"] == probe_2_span
        survivor = reclaim["attrs"]["owner"]
        assert survivor and survivor != reclaim["attrs"]["previous"]
        store = JobStore(str(state), owner="inspector")
        ok_attempts = [
            record
            for record in store.attempts("probe_2")
            if record.get("status") == "ok"
        ]
        assert ok_attempts[0]["owner"] == survivor

        # Exactly one job span for probe_2 — the deterministic id both
        # processes derive — terminal ok, under a campaign span.
        (job_record,) = [
            r
            for r in records
            if r["name"] == "job" and r.get("attrs", {}).get("job") == "probe_2"
        ]
        assert job_record["span"] == probe_2_span
        assert job_record["attrs"]["status"] == "ok"
        campaigns = [r for r in records if r["name"] == "campaign"]
        assert job_record["parent"] in {r["span"] for r in campaigns}
        # Two campaign invocations (killed + resume) share the trace; the
        # killed one survives as an unfinished span.
        assert len(campaigns) == 2
        assert sum(bool(r.get("unfinished")) for r in campaigns) == 1


# ------------------------------------------------------------------ #
# State / cache corruption
# ------------------------------------------------------------------ #
class TestCorruption:
    def test_torn_state_file_reexecutes_only_that_job(self, tmp_path, monkeypatch):
        state = str(tmp_path / "state")
        spec = probe_spec(3)
        monkeypatch.setenv(FAULTS_ENV_VAR, "torn_state:job=probe_1,count=1")
        reset_fault_state()
        first = run_campaign(spec, state_dir=state, jobs=1)
        # The job itself succeeded — only its persisted state file is torn.
        assert first.all_ok
        assert first.robustness.get("fault_torn_state") == 1

        monkeypatch.delenv(FAULTS_ENV_VAR)
        reset_fault_state()
        executed = []
        real_probe = JOB_KINDS["probe"]

        def _spying_probe(params, task_jobs):
            executed.append(params["value"])
            return real_probe(params, task_jobs)

        monkeypatch.setitem(JOB_KINDS, "probe", _spying_probe)
        second = run_campaign(spec, state_dir=state, jobs=1)
        assert second.all_ok
        # Only the torn job re-ran; its intact siblings came from state.
        assert executed == [1]
        assert len(second.cached) == 2
        assert normalized_json(second) == normalized_json(first)

    def test_corrupt_cache_line_loses_only_that_entry(self, tmp_path, monkeypatch):
        library = "deadbeefcafe0000"
        # Tear the *second* append: a torn line has no terminating newline,
        # so it is only recoverable as the final line of a crashed writer's
        # segment (anything appended after it would merge into the garbage).
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache_corrupt:after=1,count=1")
        reset_fault_state()
        writer = SynthesisDiskCache(str(tmp_path))
        writer.put("fast", library, (4, 0x1234), 42.5)  # lands intact
        writer.put("fast", library, (4, 0x5678), 17.0)  # torn mid-write
        monkeypatch.delenv(FAULTS_ENV_VAR)
        reset_fault_state()
        reloaded = SynthesisDiskCache(str(tmp_path))
        # Exactly the corrupted line is lost: its entry misses (and would
        # re-synthesise), the sibling survives.
        assert reloaded.loaded == 1
        assert reloaded.get("fast", library, (4, 0x5678)) is None
        assert reloaded.get("fast", library, (4, 0x1234)) == 42.5


# ------------------------------------------------------------------ #
# Retry / backoff machinery
# ------------------------------------------------------------------ #
class TestRetries:
    def test_transient_failure_retries_and_succeeds(self, tmp_path):
        marker = tmp_path / "flaky.marker"
        spec = CampaignSpec(
            name="retry",
            jobs=[
                CampaignJob(
                    "flaky", "probe", {"value": 7, "fail_marker": str(marker)}
                ),
                CampaignJob("steady", "probe", {"value": 8}),
            ],
        )
        state = str(tmp_path / "state")
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)
        outcome = run_campaign(spec, state_dir=state, retry_policy=policy)
        assert outcome.all_ok
        flaky = outcome.result_for("flaky")
        assert flaky.attempts == 2
        assert outcome.result_for("steady").attempts == 1
        assert outcome.robustness["retries"] == 1
        assert outcome.robustness["failures_transient"] == 1
        store = JobStore(state, owner="inspector")
        statuses = [record["status"] for record in store.attempts("flaky")]
        assert statuses == ["retry", "ok"]

    def test_permanent_failure_is_not_retried(self, monkeypatch):
        def _bad_parameters(params, task_jobs):
            raise ValueError("bad parameters")

        monkeypatch.setitem(JOB_KINDS, "bad", _bad_parameters)
        spec = CampaignSpec(name="perm", jobs=[CampaignJob("bad", "bad", {})])
        outcome = run_campaign(
            spec, retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01)
        )
        result = outcome.result_for("bad")
        assert result.status == "error"
        assert result.attempts == 1
        assert "retries" not in outcome.robustness
        assert outcome.robustness["failures_permanent"] == 1

    def test_budget_escalates_per_retry_then_times_out(self, monkeypatch):
        budgets_seen = []

        def _too_hard(params, task_jobs):
            budgets_seen.append(os.environ.get(BUDGET_ENV_VAR, ""))
            raise SolveBudgetExceeded("miter did not resolve in budget")

        monkeypatch.setitem(JOB_KINDS, "hard", _too_hard)
        spec = CampaignSpec(name="hard", jobs=[CampaignJob("hard", "hard", {})])
        outcome = run_campaign(
            spec,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
            solve_budget=SolveBudget(max_conflicts=100),
        )
        # The budget doubles on every retry; when attempts run out the job
        # finishes as "timed_out" — a verdict, not a hang, not an "error".
        assert budgets_seen == ["conflicts=100", "conflicts=200", "conflicts=400"]
        result = outcome.result_for("hard")
        assert result.status == "timed_out"
        assert result.attempts == 3
        assert outcome.robustness["timed_out"] == 1
        assert outcome.robustness["retries"] == 2
        assert not outcome.all_ok


# ------------------------------------------------------------------ #
# Solver UNKNOWN inside a real attack job
# ------------------------------------------------------------------ #
class TestSolverFault:
    def test_attack_recovers_from_forced_unknown(self, monkeypatch):
        """A forced UNKNOWN mid-attack retries into a byte-identical result.

        ``presample=0`` pins the attack to the SAT DIP loop so the first
        attempt is guaranteed to consult the solver and hit the injected
        fault; the retry (fault exhausted) must reproduce the exact
        fault-free payload — partial transcripts never leak into results.
        """
        params = {
            "family": "PRESENT",
            "count": 2,
            "population": 4,
            "generations": 1,
            "seed": 1,
            "presample": 0,
        }
        spec = CampaignSpec(
            name="attack", jobs=[CampaignJob("attack", "attack", dict(params))]
        )
        clean = run_campaign(spec)
        assert clean.all_ok

        monkeypatch.setenv(FAULTS_ENV_VAR, "solver_unknown:count=1")
        reset_fault_state()
        chaos = run_campaign(
            spec, retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01)
        )
        assert chaos.all_ok
        result = chaos.result_for("attack")
        assert result.attempts == 2
        assert chaos.robustness["retries"] == 1
        assert chaos.robustness["failures_transient"] == 1
        assert chaos.robustness["fault_solver_unknown"] == 1
        assert result.payload == clean.result_for("attack").payload


# ------------------------------------------------------------------ #
# Concurrent processes sharing one state directory
# ------------------------------------------------------------------ #
class TestConcurrentCampaigns:
    def test_every_job_executes_exactly_once(self, tmp_path):
        """Two concurrent campaign processes, one state dir, no double work.

        The jobs sleep long enough that both processes overlap; lease
        claiming must hand every job to exactly one of them, and the
        persisted attempt history is the proof: one "ok" attempt per job,
        total, across both processes.
        """
        spec = probe_spec(4, name="shared", sleep=0.2)
        state = tmp_path / "state"
        first = _drive_subprocess_campaign(tmp_path, spec, state, wait=False)
        second = _drive_subprocess_campaign(tmp_path, spec, state, wait=False)
        output_one, _ = first.communicate(timeout=180)
        output_two, _ = second.communicate(timeout=180)
        assert first.returncode == 0, output_one
        assert second.returncode == 0, output_two
        assert "ALL_OK True" in output_one
        assert "ALL_OK True" in output_two

        store = JobStore(str(state), owner="inspector")
        owners = set()
        for job in spec.jobs:
            records = store.attempts(job.job_id)
            finished = [
                record for record in records if record.get("status") == "ok"
            ]
            assert len(finished) == 1, (job.job_id, records)
            owners.add(finished[0]["owner"])
            assert (state / f"{job.job_id}.json").exists()
        # Each completed attempt names its owning process; the four jobs
        # were claimed by at most two distinct owners (the two drivers).
        assert 1 <= len(owners) <= 2
