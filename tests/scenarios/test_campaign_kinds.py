"""Tests for the adversary-side and windowed campaign job kinds."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.evaluation.workloads import get_profile
from repro.ga import pinopt
from repro.ga.pinopt import CACHE_DIR_ENV_VAR
from repro.jobstore import RetryPolicy
from repro.netlist.generate import random_netlist as build_random_netlist
from repro.netlist.blif import write_blif
from repro.netlist.simulate import extract_function
from repro.sat.solver import SolveBudget
from repro.scenarios.campaign import (
    JOB_KINDS,
    CampaignError,
    CampaignJob,
    CampaignSpec,
    run_campaign,
    run_windowed_campaign,
    window_record_from_payload,
)

WIDE30 = Path(__file__).resolve().parents[2] / "examples" / "circuits" / "wide30.blif"

#: The quick profile cut to one short GA generation over two S-boxes.
SMALL_PROFILE = dataclasses.replace(
    get_profile("quick"), ga_population=4, ga_generations=1, figure4_sbox_count=2
)


def _single_job(spec: CampaignSpec, job_id: str) -> CampaignSpec:
    """The one-job spec holding ``spec``'s job ``job_id``."""
    return CampaignSpec(name=spec.name, jobs=[job for job in spec.jobs if job.job_id == job_id])


def _one_wide30_window(job_id: str) -> CampaignSpec:
    """A single-job spec: one window job of perfbench's wide30 campaign."""
    spec = CampaignSpec.windowed(str(WIDE30), max_window_inputs=6, decoys=1, seed=1)
    return _single_job(spec, job_id)


#: Every job kind as a single-job campaign at its smallest size.
SINGLE_JOB_SPECS = [
    pytest.param(
        CampaignSpec.attacks([("PRESENT", 2)], population=4, generations=1),
        id="attack",
    ),
    pytest.param(
        CampaignSpec.adversary([("PRESENT", 2)], random_camo=False), id="decamouflage"
    ),
    pytest.param(_one_wide30_window("window_001"), id="window_obfuscate"),
    pytest.param(CampaignSpec.table1(SMALL_PROFILE, [("PRESENT", 2)]), id="table1_row"),
    pytest.param(
        _single_job(CampaignSpec.figure4(SMALL_PROFILE), "figure4a"), id="figure4a"
    ),
    pytest.param(
        _single_job(CampaignSpec.figure4(SMALL_PROFILE), "figure4b"), id="figure4b"
    ),
    pytest.param(
        CampaignSpec.adversary([("PRESENT", 2)], decamouflage=False), id="random_camo"
    ),
    pytest.param(
        CampaignSpec(name="probe", jobs=[CampaignJob("probe", "probe", {"value": 3})]),
        id="probe",
    ),
]

#: The job kinds whose payload rests on SAT solves.
SOLVING_KINDS = {"attack", "decamouflage", "random_camo"}

#: A solve budget no job of these specs comes near.
NEVER_BINDING = SolveBudget(
    max_conflicts=10 ** 9, max_propagations=10 ** 12, max_seconds=3600.0
)


class TestAdversaryJobKinds:
    def test_kinds_registered(self):
        assert "decamouflage" in JOB_KINDS
        assert "random_camo" in JOB_KINDS
        assert "window_obfuscate" in JOB_KINDS

    def test_adversary_builder(self):
        spec = CampaignSpec.adversary([("PRESENT", 2)], seed=3)
        assert [job.kind for job in spec.jobs] == ["decamouflage", "random_camo"]
        # Round-trips through JSON like every other spec.
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_adversary_builder_subsets(self):
        spec = CampaignSpec.adversary([("PRESENT", 2)], random_camo=False)
        assert [job.kind for job in spec.jobs] == ["decamouflage"]
        spec = CampaignSpec.adversary([("PRESENT", 2)], decamouflage=False)
        assert [job.kind for job in spec.jobs] == ["random_camo"]

    def test_decamouflage_job_runs(self):
        spec = CampaignSpec.adversary(
            [("PRESENT", 2)], population=4, generations=1, random_camo=False
        )
        outcome = run_campaign(spec)
        assert outcome.all_ok
        payload = outcome.results[0].payload
        assert payload["total"] == 2
        # The design's whole point: every viable function stays plausible.
        assert payload["all_plausible"] is True
        assert payload["prefilter"]["queries"] == 2

    @pytest.mark.parametrize(
        ("variable", "value"), [("REPRO_FUZZ", "0"), ("REPRO_CLAUSE_FORGET", "1")]
    )
    def test_attack_payload_ignores_the_environment(self, monkeypatch, variable, value):
        """The payload is what the job's fingerprint names: a variable the
        fingerprint does not see must not change the recorded transcript.
        Each case once did, until its variable was deleted: the first
        switched presampling off, the second clause forgetting on."""
        spec = CampaignSpec.attacks([("PRESENT", 2)], population=4, generations=1)
        (default,) = run_campaign(spec).results
        monkeypatch.setenv(variable, value)
        (under_variable,) = run_campaign(spec).results
        assert default.job_id == "attack_PRESENT_x2"
        assert default.ok and under_variable.ok
        assert under_variable.payload == default.payload

    def test_warm_store_changes_only_synthesis_counters(self, tmp_path, monkeypatch):
        """``REPRO_CACHE_DIR`` is not payload-neutral for a Table I row: a
        warm store answers fitness lookups that a cold run synthesised, and
        the row records its synthesis counters.  Everything else must stay
        equal, and a cold store must change nothing at all."""
        spec = CampaignSpec.table1(SMALL_PROFILE, [("PRESENT", 2)])
        (default,) = run_campaign(spec).results
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        (cold,) = run_campaign(spec).results
        monkeypatch.setattr(pinopt, "_STORES", {})  # a new process's view
        (warm,) = run_campaign(spec).results
        assert cold.payload == default.payload
        default_synth = default.payload["telemetry"]["scopes"].pop("synth")
        warm_synth = warm.payload["telemetry"]["scopes"].pop("synth")
        assert warm.payload == default.payload
        assert warm_synth["runs"] < default_synth["runs"]

    @pytest.mark.parametrize("spec", SINGLE_JOB_SPECS)
    def test_payload_identical_across_jobs(self, four_cpus, spec):
        """A single-job campaign hands its job every worker (task_jobs=2),
        so the GA and random baseline of a Table I, Figure 4, attack or
        decamouflage job synthesise on a real pool; the payload, synthesis
        counters included, must not change.  Four CPUs are reported so the
        pool forks on any host."""
        payloads = []
        for jobs in (1, 2):
            (result,) = run_campaign(spec, jobs=jobs).results
            assert result.ok
            payloads.append(json.dumps(result.payload, sort_keys=True))
        assert payloads[1] == payloads[0]

    @pytest.mark.parametrize("spec", SINGLE_JOB_SPECS)
    def test_solve_budget_never_changes_an_ok_payload(self, spec):
        """A solve budget may turn ``ok`` into ``timed_out``, never change an
        ``ok`` payload.  A budget that never binds leaves every payload as
        it is; one conflict a solve times out exactly the kinds that solve
        (the attack, the plausibility oracle of the decamouflage and
        random-camouflage jobs) and leaves the others at the default."""
        (default,) = run_campaign(spec).results
        (generous,) = run_campaign(spec, solve_budget=NEVER_BINDING).results
        (starved,) = run_campaign(
            spec,
            solve_budget=SolveBudget(max_conflicts=1),
            retry_policy=RetryPolicy(max_attempts=2),
        ).results
        assert default.ok and generous.ok
        expected = json.dumps(default.payload, sort_keys=True)
        assert json.dumps(generous.payload, sort_keys=True) == expected
        if default.kind in SOLVING_KINDS:
            assert starved.status == "timed_out"
            assert starved.attempts == 2
            assert starved.error.startswith("SolveBudgetExceeded: ")
        else:
            assert starved.ok
            assert json.dumps(starved.payload, sort_keys=True) == expected

    def test_random_camo_job_runs(self):
        spec = CampaignSpec.adversary(
            [("PRESENT", 2)], decamouflage=False, fraction=0.5, seed=3
        )
        outcome = run_campaign(spec)
        assert outcome.all_ok
        payload = outcome.results[0].payload
        assert payload["total"] == 2
        # The true function is always plausible under its own camouflage.
        assert payload["verdicts"][0] is True
        assert payload["camouflaged_cells"] >= 1


@pytest.fixture(scope="module")
def wide_blif(tmp_path_factory, library):
    """A bundled-style wide BLIF circuit on disk (20 inputs, 14 cells)."""
    netlist = build_random_netlist(
        23, library, num_inputs=20, num_cells=14, num_outputs=4, name="wide20"
    )
    path = tmp_path_factory.mktemp("blif") / "wide20.blif"
    path.write_text(write_blif(netlist), encoding="utf-8")
    return str(path), netlist


class TestWindowedCampaign:
    def test_spec_builder_is_deterministic(self, wide_blif):
        path, _ = wide_blif
        first = CampaignSpec.windowed(path, max_window_inputs=6, decoys=0)
        second = CampaignSpec.windowed(path, max_window_inputs=6, decoys=0)
        assert first.to_dict() == second.to_dict()
        assert all(job.kind == "window_obfuscate" for job in first.jobs)

    def test_run_and_stitch_equivalence(self, wide_blif, tmp_path):
        path, original = wide_blif
        outcome, assembled = run_windowed_campaign(
            path,
            spec=CampaignSpec.windowed(path, max_window_inputs=6, decoys=0, seed=3),
            state_dir=str(tmp_path / "state"),
        )
        assert outcome.all_ok
        assert assembled is not None
        assert assembled.verification.ok
        assert len(assembled.true_configuration) >= 1

    def test_resume_from_state_and_payload_rebuild(self, wide_blif, tmp_path):
        """Interrupt after a few windows; the rerun stitches from state."""
        path, original = wide_blif
        state_dir = str(tmp_path / "state")
        spec = CampaignSpec.windowed(path, max_window_inputs=6, decoys=0, seed=3)
        partial, assembled = run_windowed_campaign(
            path, spec=spec, state_dir=state_dir, limit=2
        )
        assert assembled is None
        assert len(partial.executed) == 2
        assert len(partial.pending) == len(spec.jobs) - 2

        resumed, assembled = run_windowed_campaign(
            path, spec=spec, state_dir=state_dir
        )
        assert len(resumed.cached) == 2
        assert assembled is not None
        assert assembled.verification.ok
        # Cached windows were rebuilt from persisted payloads (no value).
        assert all(result.value is None for result in resumed.cached)

    @pytest.mark.parametrize("windowing_env", [None, "hardness"])
    def test_resume_entirely_from_state(
        self, wide_blif, tmp_path, monkeypatch, windowing_env
    ):
        """A finished campaign rerun stitches every window from its payload.

        Job fingerprints do not see the environment, so the rerun must not
        either: setting the deleted windowing variable changes nothing.
        """
        path, _ = wide_blif
        params = dict(
            spec=CampaignSpec.windowed(path, max_window_inputs=6, decoys=0, seed=3),
            state_dir=str(tmp_path / "state"),
        )
        fresh, _ = run_windowed_campaign(path, **params)
        if windowing_env is not None:
            monkeypatch.setenv("REPRO_WINDOWING", windowing_env)
        resumed, assembled = run_windowed_campaign(path, **params)
        assert not resumed.executed
        assert len(resumed.cached) == len(fresh.results)
        assert assembled.verification.ok

    def test_payload_round_trip_preserves_configuration(self, wide_blif, tmp_path):
        path, _ = wide_blif
        state_dir = str(tmp_path / "state")
        outcome, assembled = run_windowed_campaign(
            path,
            spec=CampaignSpec.windowed(path, max_window_inputs=6, decoys=0, seed=3),
            state_dir=state_dir,
        )
        result = outcome.results[0]
        record = window_record_from_payload(
            result.payload, assembled.records[0].window
        )
        fresh = assembled.records[0]
        assert (
            extract_function(
                record.netlist, cell_functions=record.true_configuration
            ).lookup_table()
            == extract_function(
                fresh.netlist, cell_functions=fresh.true_configuration
            ).lookup_table()
        )

    def test_changed_blif_fails_loudly(self, wide_blif, tmp_path, library):
        """A spec built for N windows refuses a circuit that windows to M."""
        path, _ = wide_blif
        spec = CampaignSpec.windowed(path, max_window_inputs=6, decoys=0)
        other = build_random_netlist(
            99, library, num_inputs=20, num_cells=30, num_outputs=4
        )
        new_path = tmp_path / "changed.blif"
        new_path.write_text(write_blif(other), encoding="utf-8")
        # Rewire every job onto the changed circuit.
        data = spec.to_dict()
        for job in data["jobs"]:
            job["params"]["path"] = str(new_path)
        changed = CampaignSpec.from_dict(data)
        outcome = run_campaign(changed)
        assert outcome.failed
        assert "windows" in outcome.failed[0].error

    def test_lone_window_job_synthesises_in_process(self, monkeypatch, four_cpus):
        """A lone window job is handed both workers (task_jobs=2) but runs
        its GA inline, so every synthesis it counts is a call in this
        process, as outside-in tracing of a run assumes."""
        import sys

        import repro.synth.script as script_module

        synthesize = script_module.synthesize
        in_process = []

        def counted(*args, **kwargs):
            # A forked worker would append to its own copy of the list.
            in_process.append(1)
            return synthesize(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "synthesize", None) is synthesize
            ):
                monkeypatch.setattr(module, "synthesize", counted)
        calls, runs = [], []
        for jobs in (1, 2):
            in_process.clear()
            before = script_module.synthesis_counters()
            (result,) = run_campaign(_one_wide30_window("window_001"), jobs=jobs).results
            assert result.ok
            calls.append(len(in_process))
            runs.append(script_module.synthesis_counters_since(before)["runs"])
        assert calls[0] > 1
        assert calls == runs == [calls[0], calls[0]]

    @pytest.mark.parametrize("decoys", [0, 1])
    def test_jobs_deterministic(self, wide_blif, four_cpus, decoys):
        """The stitched netlist and its true configuration are the same
        for jobs 1 and 2.  Four CPUs are reported so the pool forks on any
        host."""
        path, _ = wide_blif
        spec = CampaignSpec.windowed(
            path, max_window_inputs=6, decoys=decoys, seed=3, generations=1
        )
        outputs = []
        for jobs in (1, 2):
            _, assembled = run_windowed_campaign(
                path, spec=spec, jobs=jobs, verify=False
            )
            outputs.append(
                (
                    write_blif(assembled.netlist),
                    sorted(
                        (name, table.bits)
                        for name, table in assembled.true_configuration.items()
                    ),
                )
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "param, value, runs",
        [
            pytest.param("scheduler", "fixed", True, id="scheduler-fixed"),
            pytest.param("scheduler", "adaptive", False, id="scheduler-adaptive"),
            pytest.param("probe_hardness", False, True, id="probe_hardness-false"),
            pytest.param("probe_hardness", True, False, id="probe_hardness-true"),
            pytest.param("hardness", {}, True, id="hardness-empty"),
            pytest.param("hardness", {"0": 5.0}, False, id="hardness-weights"),
        ],
    )
    def test_retired_param(self, param, value, runs):
        """A param of a deleted mechanism runs only at the value still run.

        Any other value fails permanently, naming the param, instead of
        storing a default run under a fingerprint that says otherwise.
        """
        spec = CampaignSpec.windowed(
            str(WIDE30), max_window_inputs=6, decoys=1, population=4, generations=1
        )
        data = spec.to_dict()
        data["jobs"] = data["jobs"][:1]
        (default,) = run_campaign(CampaignSpec.from_dict(data)).results
        data["jobs"][0]["params"][param] = value
        (result,) = run_campaign(CampaignSpec.from_dict(data)).results
        if runs:
            assert result.status == "ok"
            assert result.payload == default.payload
        else:
            assert result.status == "error"
            assert result.attempts == 1
            assert f"'{param}'" in result.error
