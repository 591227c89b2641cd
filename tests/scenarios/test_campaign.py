"""Unit and integration tests for the campaign runner."""

import json

import pytest

from repro.evaluation.table1 import run_table1_entry
from repro.evaluation.workloads import ExperimentProfile
from repro.scenarios.campaign import (
    JOB_KINDS,
    CampaignError,
    CampaignJob,
    CampaignSpec,
    JobBook,
    run_campaign,
)


@pytest.fixture(scope="module")
def tiny_profile():
    return ExperimentProfile(
        name="tiny",
        present_counts=(2,),
        des_counts=(),
        ga_population=4,
        ga_generations=2,
        random_samples=0,
        figure4_sbox_count=2,
    )


@pytest.fixture
def echo_kind(monkeypatch):
    """A trivially cheap job kind for runner-mechanics tests."""
    calls = []

    def _run_echo(params, task_jobs):
        calls.append(dict(params))
        if params.get("explode"):
            raise RuntimeError("boom")
        return params.get("x"), {"x": params.get("x"), "jobs": task_jobs}

    monkeypatch.setitem(JOB_KINDS, "echo", _run_echo)
    return calls


def _echo_spec(values, name="echo-campaign", **extra):
    return CampaignSpec(
        name=name,
        jobs=[
            CampaignJob(f"echo_{value}", "echo", {"x": value, **extra})
            for value in values
        ],
    )


class TestSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(name="bad", jobs=[CampaignJob("a", "no_such_kind", {})])

    def test_duplicate_job_id_rejected(self, echo_kind):
        with pytest.raises(CampaignError):
            CampaignSpec(
                name="bad",
                jobs=[CampaignJob("a", "echo", {}), CampaignJob("a", "echo", {})],
            )

    def test_json_round_trip(self, tiny_profile):
        spec = CampaignSpec.table1(tiny_profile, [("PRESENT", 2)], seed=3)
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.name == spec.name
        assert [job.job_id for job in rebuilt.jobs] == [job.job_id for job in spec.jobs]
        assert [job.fingerprint() for job in rebuilt.jobs] == [
            job.fingerprint() for job in spec.jobs
        ]

    def test_fingerprint_tracks_params(self, echo_kind):
        a = CampaignJob("j", "echo", {"x": 1})
        b = CampaignJob("j", "echo", {"x": 2})
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == CampaignJob("j", "echo", {"x": 1}).fingerprint()

    def test_merged_specs(self, echo_kind):
        merged = _echo_spec([1]).merged(_echo_spec([2]), name="both")
        assert [job.job_id for job in merged.jobs] == ["echo_1", "echo_2"]
        with pytest.raises(CampaignError):
            _echo_spec([1]).merged(_echo_spec([1]))

    def test_malformed_spec_dict(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict({"name": "x"})


class TestRunnerMechanics:
    def test_results_in_spec_order(self, echo_kind):
        outcome = run_campaign(_echo_spec([3, 1, 2]))
        assert [result.job_id for result in outcome.results] == [
            "echo_3", "echo_1", "echo_2"
        ]
        assert [result.value for result in outcome.results] == [3, 1, 2]
        assert outcome.all_ok

    def test_error_job_is_isolated(self, echo_kind):
        spec = CampaignSpec(
            name="err",
            jobs=[
                CampaignJob("good", "echo", {"x": 1}),
                CampaignJob("bad", "echo", {"x": 2, "explode": True}),
            ],
        )
        outcome = run_campaign(spec)
        assert outcome.result_for("good").ok
        bad = outcome.result_for("bad")
        assert bad.status == "error"
        assert "boom" in bad.error
        assert not outcome.all_ok

    def test_limit_leaves_pending(self, echo_kind):
        outcome = run_campaign(_echo_spec([1, 2, 3]), limit=1)
        assert len(outcome.executed) == 1
        assert len(outcome.pending) == 2
        assert outcome.result_for("echo_2").status == "pending"

    def test_fail_fast_aborts_and_keeps_finished_state(self, echo_kind, tmp_path):
        state = tmp_path / "state"
        spec = CampaignSpec(
            name="ff",
            jobs=[
                CampaignJob("good", "echo", {"x": 1}),
                CampaignJob("bad", "echo", {"explode": True}),
                CampaignJob("never", "echo", {"x": 3}),
            ],
        )
        with pytest.raises(RuntimeError, match="boom"):
            run_campaign(spec, state_dir=str(state), fail_fast=True)
        # The failure aborted before the third job ran...
        assert [call.get("x") for call in echo_kind] == [1, None]
        # ...but the completed prefix is on disk and resumable.
        assert (state / "good.json").exists()
        assert not (state / "never.json").exists()

    def test_state_dir_resume_skips_completed(self, echo_kind, tmp_path):
        state = str(tmp_path / "state")
        spec = _echo_spec([1, 2, 3])
        first = run_campaign(spec, state_dir=state, limit=2)
        assert len(first.executed) == 2 and len(first.pending) == 1
        assert len(echo_kind) == 2
        # The second run completes from the saved state: only the pending
        # job executes, the finished ones are restored without recompute.
        second = run_campaign(spec, state_dir=state)
        assert len(second.cached) == 2
        assert len(second.executed) == 1
        assert len(echo_kind) == 3
        assert second.all_ok
        # Third run: everything cached, nothing executes.
        third = run_campaign(spec, state_dir=state)
        assert len(third.cached) == 3 and not third.executed
        assert len(echo_kind) == 3
        assert third.result_for("echo_1").payload["x"] == 1

    def test_changed_params_invalidate_state(self, echo_kind, tmp_path):
        state = str(tmp_path / "state")
        run_campaign(_echo_spec([1], marker="a"), state_dir=state)
        assert len(echo_kind) == 1
        # Same job id, different params: the stale state must not answer.
        outcome = run_campaign(_echo_spec([1], marker="b"), state_dir=state)
        assert len(echo_kind) == 2
        assert not outcome.cached

    def test_corrupt_state_file_reruns(self, echo_kind, tmp_path):
        state = tmp_path / "state"
        spec = _echo_spec([1])
        run_campaign(spec, state_dir=str(state))
        (state / "echo_1.json").write_text("{ not json", encoding="utf-8")
        outcome = run_campaign(spec, state_dir=str(state))
        assert len(outcome.executed) == 1 and not outcome.cached

    def test_failed_jobs_are_not_persisted(self, echo_kind, tmp_path):
        state = tmp_path / "state"
        spec = CampaignSpec(
            name="err", jobs=[CampaignJob("bad", "echo", {"explode": True})]
        )
        run_campaign(spec, state_dir=str(state))
        assert not (state / "bad.json").exists()

    def test_parallel_results_checkpoint_incrementally(
        self, echo_kind, tmp_path, monkeypatch, four_cpus
    ):
        state = tmp_path / "state"
        saves = []

        real_save = JobBook.save

        def _spy_save(self, job, result):
            real_save(self, job, result)
            saves.append((job.job_id, sorted(p.name for p in state.iterdir())))

        monkeypatch.setattr(JobBook, "save", _spy_save)
        outcome = run_campaign(_echo_spec([1, 2, 3]), state_dir=str(state), jobs=4)
        assert outcome.all_ok
        # Each job's state landed on disk before the next result was
        # consumed — an interrupted parallel campaign keeps its finished
        # prefix (results stream via WorkerPool.imap, not a batch barrier).
        assert [entry[0] for entry in saves] == ["echo_1", "echo_2", "echo_3"]
        assert "echo_1.json" in saves[0][1]
        assert "echo_3.json" not in saves[1][1]

    def test_worker_budget_split(self, echo_kind, four_cpus):
        outcome = run_campaign(_echo_spec([1, 2]), jobs=4)
        # Two concurrent jobs share the 4-worker budget: 2 each.
        assert [result.payload["jobs"] for result in outcome.results] == [2, 2]
        serial = run_campaign(_echo_spec([1, 2]), jobs=1)
        assert [result.payload["jobs"] for result in serial.results] == [1, 1]


class TestArtifacts:
    def test_bench_payload_shape(self, echo_kind):
        outcome = run_campaign(_echo_spec([1, 2]))
        payload = outcome.bench_payload()
        assert payload["name"] == "campaign_echo-campaign"
        assert "total_seconds" in payload and "mean_seconds" in payload
        assert "wall_seconds" in payload
        assert payload["campaign"]["executed"] == 2

    def test_bench_payload_stable_across_cached_reruns(self, echo_kind, tmp_path):
        # The timing keys sum recorded per-job seconds, so a
        # partially-cached rerun reports the campaign's compute cost, not
        # just the un-cached remainder's wall clock.
        state = str(tmp_path / "state")
        fresh = run_campaign(_echo_spec([1, 2]), state_dir=state)
        rerun = run_campaign(_echo_spec([1, 2]), state_dir=state)
        assert len(rerun.cached) == 2
        fresh_payload = fresh.bench_payload()
        rerun_payload = rerun.bench_payload()
        assert rerun_payload["total_seconds"] == pytest.approx(
            fresh_payload["total_seconds"]
        )
        assert set(rerun_payload["job_seconds"]) == set(fresh_payload["job_seconds"])

    def test_artifact_files(self, echo_kind, tmp_path):
        outcome = run_campaign(_echo_spec([1, 2]))
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        written = outcome.write_artifacts(
            json_path=str(json_path),
            csv_path=str(csv_path),
            bench_dir=str(tmp_path / "bench"),
        )
        assert len(written) == 3
        document = json.loads(json_path.read_text(encoding="utf-8"))
        assert len(document["results"]) == 2
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("job_id,kind,status,cached,seconds")
        assert len(lines) == 3
        bench = json.loads(
            (tmp_path / "bench" / "BENCH_campaign_echo-campaign.json").read_text(
                encoding="utf-8"
            )
        )
        assert bench["campaign"]["executed"] == 2


class TestRealJobs:
    def test_table1_row_job_matches_direct_entry(self, tiny_profile):
        spec = CampaignSpec.table1(tiny_profile, [("PRESENT", 2)], seed=1)
        outcome = run_campaign(spec)
        assert outcome.all_ok
        entry = outcome.results[0].value
        direct = run_table1_entry("PRESENT", 2, profile=tiny_profile, seed=1)
        assert entry.row.as_dict() == direct.row.as_dict()
        assert outcome.results[0].payload["row"] == direct.row.as_dict()
        assert outcome.results[0].payload["verification_ok"] is True

    def test_table1_row_resume_from_state(self, tiny_profile, tmp_path):
        state = str(tmp_path / "state")
        spec = CampaignSpec.table1(tiny_profile, [("PRESENT", 2)], seed=1)
        first = run_campaign(spec, state_dir=state)
        second = run_campaign(spec, state_dir=state)
        assert second.results[0].cached
        assert second.results[0].payload == first.results[0].payload
        # Cached results carry no rich value; the payload is the contract.
        assert second.results[0].value is None

    def test_attack_job(self, tiny_profile):
        spec = CampaignSpec.attacks([("PRESENT", 2)], population=4, generations=1)
        outcome = run_campaign(spec)
        assert outcome.all_ok
        payload = outcome.results[0].payload
        assert payload["success"] is True
        assert payload["total_oracle_queries"] >= 1
        assert "solve_calls" in payload["solver"]

    def test_table1_failure_reraises_original_exception(self, tiny_profile, monkeypatch):
        import repro.evaluation.table1 as table1_module
        from repro.evaluation.table1 import run_table1

        def _explode(*args, **kwargs):
            raise ZeroDivisionError("synthetic GA failure")

        monkeypatch.setattr(table1_module, "run_table1_entry", _explode)
        # The faulting type propagates unchanged, as in the pre-runner loop.
        with pytest.raises(ZeroDivisionError):
            run_table1(profile=tiny_profile, families=[("PRESENT", 2)], seed=1)

    def test_table1_unknown_family_still_raises_value_error(self, tiny_profile):
        from repro.evaluation.table1 import run_table1

        with pytest.raises(ValueError):
            run_table1(profile=tiny_profile, families=[("NOPE", 2)], seed=1)

    def test_unpicklable_exception_reported_as_string(self, echo_kind, monkeypatch):
        class Unpicklable(Exception):
            def __init__(self, handle, extra):
                super().__init__("unpicklable")
                self.handle = handle

        def _raise(params, task_jobs):
            raise Unpicklable(object(), "x")

        monkeypatch.setitem(JOB_KINDS, "explode", _raise)
        spec = CampaignSpec(name="x", jobs=[CampaignJob("j", "explode", {})])
        outcome = run_campaign(spec)
        result = outcome.result_for("j")
        assert result.status == "error"
        assert "Unpicklable" in result.error
        # The exception itself is dropped: it would not survive the worker
        # pickle boundary, and a sweep must never die on result transfer.
        assert result.exception is None

    def test_figure4_jobs(self, tiny_profile):
        spec = CampaignSpec.figure4(tiny_profile, seed=3)
        outcome = run_campaign(spec)
        assert outcome.all_ok
        a_payload = outcome.result_for("figure4a").payload
        b_payload = outcome.result_for("figure4b").payload
        assert a_payload["best"] <= a_payload["average"] <= a_payload["worst"]
        assert b_payload["ga_evaluations"] > 0
