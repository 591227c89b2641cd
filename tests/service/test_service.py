"""End-to-end tests for the campaign service (coordinator + workers).

Every test drives a real coordinator over real HTTP on a loopback socket
(:class:`~repro.service.server.ServiceThread`) and real pull-based worker
agents; nothing is mocked.  The invariants mirror the local campaign
runner's: submissions dedupe, every job runs exactly once, lost leases
discard results instead of double-writing, and the artifacts a service
campaign produces are byte-identical to a local run of the same spec.
"""

import dataclasses
import http.client
import json
import os
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.evaluation.workloads import get_profile
from repro.ga.pinopt import CACHE_DIR_ENV_VAR
from repro.jobstore import JobStore, RetryPolicy
from repro.sat.solver import BUDGET_ENV_VAR, SolveBudget, SolveBudgetExceeded
from repro.scenarios.campaign import (
    JOB_KINDS,
    CampaignJob,
    CampaignSpec,
    run_campaign,
)
from repro.service.cache import CACHE_URL_ENV_VAR, RemoteCacheTier
from repro.service.client import ServiceClient
from repro.service.protocol import (
    ServiceError,
    campaign_fingerprint,
    normalized_artifact_csv,
    normalized_artifact_json,
)
from repro.service.server import ServiceThread
from repro.service.worker import WorkerAgent


def probe_spec(count=3, name="svc", **extra):
    return CampaignSpec(
        name=name,
        jobs=[
            CampaignJob(f"probe_{index}", "probe", {"value": index, **extra})
            for index in range(count)
        ],
    )


def run_worker(url, campaign=None, max_jobs=None, **kwargs):
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("remote_cache", False)
    kwargs.setdefault("log", None)
    agent = WorkerAgent(url, **kwargs)
    return agent.run(campaign=campaign, once=True, max_jobs=max_jobs)


class TestSubmission:
    def test_health_and_unknown_routes(self, tmp_path):
        with ServiceThread(root=str(tmp_path)) as service:
            client = ServiceClient(service.url)
            assert client.health()["ok"] is True
            with pytest.raises(ServiceError) as info:
                client.status("c000000000000")
            assert info.value.status == 404
            with pytest.raises(ServiceError) as info:
                client.submit({"name": "bad"})  # no jobs: invalid spec
            assert info.value.status == 400

    def test_query_strings_do_not_change_the_route(self, tmp_path):
        spec = probe_spec(count=1, name="query")
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            campaign_id = ServiceClient(service.url).submit(spec.to_dict())[
                "campaign"
            ]
            run_worker(service.url, campaign=campaign_id)
            address = urlsplit(service.url)
            for path, content_type in (
                (f"/campaigns/{campaign_id}?x=1", "application/json"),
                (f"/campaigns/{campaign_id}/events?x=1", "text/event-stream"),
            ):
                connection = http.client.HTTPConnection(
                    address.hostname, address.port, timeout=10
                )
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                finally:
                    connection.close()
                assert response.status == 200, (path, body)
                assert response.getheader("Content-Type") == content_type

    def test_resubmission_dedupes_onto_one_campaign(self, tmp_path):
        spec = probe_spec()
        with ServiceThread(root=str(tmp_path)) as service:
            client = ServiceClient(service.url)
            first = client.submit(spec.to_dict())
            second = client.submit(spec.to_dict())
            assert first["campaign"] == second["campaign"]
            assert first["created"] is True
            assert second["created"] is False
            assert first["campaign"] == campaign_fingerprint(spec.to_dict())
            listing = client.campaigns()["campaigns"]
            assert [entry["campaign"] for entry in listing] == [
                first["campaign"]
            ]

    def test_concurrent_clients_dedupe_and_both_observe_completion(
        self, tmp_path
    ):
        """Two clients race the same spec: one campaign, two live streams.

        The submissions land concurrently (exactly one reports
        ``created``), and *both* submitters' SSE subscriptions — opened
        before any worker exists — observe every job finish and the final
        campaign-complete event.
        """
        spec = probe_spec(count=4, name="race")
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            submissions = []

            def submit():
                submissions.append(
                    ServiceClient(service.url).submit(spec.to_dict())
                )

            submitters = [threading.Thread(target=submit) for _ in range(2)]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=30)
            assert len(submissions) == 2
            assert len({entry["campaign"] for entry in submissions}) == 1
            assert sorted(entry["created"] for entry in submissions) == [
                False,
                True,
            ]
            campaign_id = submissions[0]["campaign"]

            streams = [[], []]

            def watch(collected):
                client = ServiceClient(service.url)
                for event, data in client.events(campaign_id):
                    collected.append((event, data))

            watchers = [
                threading.Thread(target=watch, args=(stream,), daemon=True)
                for stream in streams
            ]
            for thread in watchers:
                thread.start()
            time.sleep(0.1)  # both subscriptions see the pending snapshot

            counters = run_worker(service.url, campaign=campaign_id)
            assert counters["executed"] == 4
            for thread in watchers:
                thread.join(timeout=30)
                assert not thread.is_alive()

            for collected in streams:
                names = [event for event, _ in collected]
                assert names[0] == "snapshot"
                assert names[-1] == "campaign"
                assert collected[-1][1]["status"] == "complete"
                done = [
                    data["job"] for event, data in collected if event == "done"
                ]
                assert sorted(done) == [job.job_id for job in spec.jobs]


class TestWorkerExecution:
    def test_worker_fleet_produces_local_artifacts_byte_identically(
        self, tmp_path
    ):
        """The acceptance invariant: service artifacts == local artifacts.

        The spec runs once through the HTTP fleet and once through the
        in-process runner; after stripping wall-clock/provenance noise the
        JSON and CSV artifacts must match byte for byte.
        """
        spec = probe_spec(count=4)
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            run_worker(service.url, campaign=campaign_id)

            status = client.status(campaign_id)
            assert status["complete"] is True
            assert status["counts"] == {"done": 4}
            assert status["robustness"]["lease_claims"] == 4

            service_json = client.artifact(campaign_id, "json")
            service_csv = client.artifact(campaign_id, "csv")
            bench = json.loads(client.artifact(campaign_id, "bench"))
            assert bench["name"].endswith(spec.name)

        local = run_campaign(spec, jobs=1)
        assert normalized_artifact_json(service_json) == (
            normalized_artifact_json(local.to_json())
        )
        assert normalized_artifact_csv(service_csv) == (
            normalized_artifact_csv(local.to_csv())
        )

    def test_two_workers_split_the_jobs_without_double_work(self, tmp_path):
        spec = probe_spec(count=6, sleep=0.05)
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            results = {}

            def work(name):
                results[name] = run_worker(
                    service.url, campaign=campaign_id, worker_id=name
                )

            workers = [
                threading.Thread(target=work, args=(f"w{index}",))
                for index in range(2)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            assert client.status(campaign_id)["complete"] is True
            executed = [results[name]["executed"] for name in sorted(results)]
            assert sum(executed) == 6
            # The attempt sidecars prove exactly-once execution.
            state_dir = tmp_path / "campaigns" / campaign_id / "state"
            store = JobStore(str(state_dir), owner="inspector")
            for job in spec.jobs:
                records = store.attempts(job.job_id)
                finished = [
                    record
                    for record in records
                    if record.get("status") == "ok"
                ]
                assert len(finished) == 1, (job.job_id, records)

    def test_fresh_worker_reads_syntheses_from_a_warm_coordinator(
        self, tmp_path, monkeypatch
    ):
        """The fleet-shared cache tier saves a new worker synthesis calls.

        One worker runs a Table I row against a cold coordinator cache;
        then a worker with an empty local tier runs the same row at another
        seed.  Its remote-cache hits ride its job uploads into the
        campaign's robustness counters, and the coordinator must have
        served at least that many.
        """
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        profile = dataclasses.replace(
            get_profile("quick"), ga_population=4, ga_generations=1
        )
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            monkeypatch.setenv(CACHE_URL_ENV_VAR, service.url)
            client = ServiceClient(service.url)
            for seed in (1, 2):
                # A new worker process starts with an empty local tier.
                monkeypatch.setitem(
                    RemoteCacheTier._SHARED, service.url, RemoteCacheTier(service.url)
                )
                spec = CampaignSpec.table1(
                    profile, [("PRESENT", 2)], seed=seed, name=f"cache_{seed}"
                )
                campaign_id = client.submit(spec.to_dict())["campaign"]
                run_worker(service.url, campaign=campaign_id, remote_cache=True)
            robustness = client.status(campaign_id)["robustness"]
            hits = robustness.get("remote_cache_hits", 0)
            assert hits > 0, robustness
            assert client.cache_stats()["get_hits"] >= hits

    def test_transient_failure_retries_over_http(self, tmp_path):
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
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)
        with ServiceThread(
            root=str(tmp_path / "root"), poll=0.02, retry_policy=policy
        ) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            counters = run_worker(service.url, campaign=campaign_id)
            assert counters == {"executed": 2, "failed": 1, "discarded": 0}
            status = client.status(campaign_id)
            assert status["complete"] is True
            assert status["counts"] == {"done": 2}
            assert status["robustness"]["retries"] == 1
            assert status["robustness"]["failures_transient"] == 1
            state_dir = tmp_path / "root" / "campaigns" / campaign_id / "state"
            statuses = [
                record["status"]
                for record in JobStore(
                    str(state_dir), owner="inspector"
                ).attempts("flaky")
            ]
            assert statuses == ["retry", "ok"]
            # The committed state records the real attempt count.
            flaky_state = json.loads(
                (state_dir / "flaky.json").read_text(encoding="utf-8")
            )
            assert flaky_state["attempts"] == 2
            assert flaky_state["owner"].startswith("remote:")

    def test_budget_escalates_per_retry_then_times_out(
        self, tmp_path, monkeypatch
    ):
        """Service twin of the local chaos test of the same name.

        The coordinator doubles the solve budget on every retry and, when
        attempts run out, finishes the job ``timed_out`` with the same
        robustness counters a local run records.
        """
        budgets_seen = []

        def _too_hard(params, task_jobs):
            budgets_seen.append(os.environ.get(BUDGET_ENV_VAR, ""))
            raise SolveBudgetExceeded("miter did not resolve in budget")

        monkeypatch.setitem(JOB_KINDS, "hard", _too_hard)
        spec = CampaignSpec(name="hard", jobs=[CampaignJob("hard", "hard", {})])
        with ServiceThread(
            root=str(tmp_path),
            poll=0.02,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
            solve_budget=SolveBudget(max_conflicts=100),
        ) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            counters = run_worker(service.url, campaign=campaign_id)
            status = client.status(campaign_id)
        assert budgets_seen == ["conflicts=100", "conflicts=200", "conflicts=400"]
        assert counters == {"executed": 0, "failed": 3, "discarded": 0}
        assert status["complete"] is True
        assert status["counts"] == {"timed_out": 1}
        robustness = status["robustness"]
        assert robustness["retries"] == 2
        assert robustness["timed_out"] == 1
        assert robustness["failures_transient"] == 3

    def test_permanent_failure_finishes_terminally(self, tmp_path, monkeypatch):
        def _bad_parameters(params, task_jobs):
            raise ValueError("bad parameters")

        monkeypatch.setitem(JOB_KINDS, "bad", _bad_parameters)
        spec = CampaignSpec(name="perm", jobs=[CampaignJob("bad", "bad", {})])
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]

            events = []

            def watch():
                for event, data in ServiceClient(service.url).events(
                    campaign_id
                ):
                    events.append((event, data))

            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
            time.sleep(0.1)

            counters = run_worker(service.url, campaign=campaign_id)
            assert counters["failed"] == 1
            watcher.join(timeout=30)
            assert not watcher.is_alive()

            status = client.status(campaign_id)
            assert status["complete"] is True
            assert status["counts"] == {"error": 1}
            assert status["robustness"]["failures_permanent"] == 1
            assert "retries" not in status["robustness"]
            failed = [data for event, data in events if event == "failed"]
            assert failed and failed[0]["status"] == "error"
            assert "bad parameters" in failed[0]["error"]
            document = json.loads(client.artifact(campaign_id, "json"))
            assert document["results"][0]["status"] == "error"


class TestLeaseSafety:
    def test_commit_under_a_reclaimed_lease_is_discarded(self, tmp_path):
        """The 409 path: a slow worker's result never lands twice.

        Worker ``a`` claims and goes silent (no heartbeats); after the TTL
        a second worker reclaims the job and finishes it.  When ``a``
        finally uploads, the coordinator must refuse the commit — the
        job's state is the reclaiming worker's, exactly once.
        """
        spec = probe_spec(count=1, name="lease")
        with ServiceThread(
            root=str(tmp_path), poll=0.02, lease_ttl=0.2
        ) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            job_id = spec.jobs[0].job_id

            ticket = client.claim(campaign_id, "a")
            assert ticket["job"]["job_id"] == job_id
            time.sleep(0.8)  # three missed heartbeats: the lease expires

            stolen = client.claim(campaign_id, "b")
            assert stolen["job"]["job_id"] == job_id
            committed = client.complete(
                campaign_id, job_id, "b", seconds=0.1, payload={"value": 0}
            )
            assert committed["committed"] is True

            with pytest.raises(ServiceError) as info:
                client.complete(
                    campaign_id,
                    job_id,
                    "a",
                    seconds=9.9,
                    payload={"value": 666},
                )
            assert info.value.status == 409

            status = client.status(campaign_id)
            assert status["complete"] is True
            assert status["robustness"]["lease_lost_discards"] == 1
            assert status["robustness"]["worker_reclaims"] == 1
            # The reclaim is on the record, and b's payload won.
            state_dir = tmp_path / "campaigns" / campaign_id / "state"
            records = JobStore(str(state_dir), owner="inspector").attempts(
                job_id
            )
            assert any(record.get("reclaimed") for record in records)
            document = json.loads(client.artifact(campaign_id, "json"))
            assert document["results"][0]["payload"] == {"value": 0}
            state = json.loads(
                (state_dir / f"{job_id}.json").read_text(encoding="utf-8")
            )
            assert state["owner"] == "remote:b"

    def test_heartbeat_of_a_lost_lease_reports_409(self, tmp_path):
        spec = probe_spec(count=1, name="beat")
        with ServiceThread(
            root=str(tmp_path), poll=0.02, lease_ttl=0.2
        ) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            job_id = spec.jobs[0].job_id
            client.claim(campaign_id, "a")
            assert "expires" in client.heartbeat(campaign_id, job_id, "a")
            time.sleep(0.8)
            client.claim(campaign_id, "b")
            with pytest.raises(ServiceError) as info:
                client.heartbeat(campaign_id, job_id, "a")
            assert info.value.status == 409


class TestMalformedUploads:
    """A malformed completion is a 400, not a dropped connection.

    The coordinator must answer with a JSON error before it touches the
    lease or the state file, so the job stays claimed and the same worker
    can still commit it.
    """

    @staticmethod
    def _post(url, path, body, content_length=None):
        address = urlsplit(url)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=10
        )
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Type", "application/json")
            if content_length is None:
                content_length = str(len(body))
            connection.putheader("Content-Length", content_length)
            connection.endheaders()
            # The coordinator answers a bad Content-Length without reading
            # the body; bytes left unread would turn its close into a reset.
            if content_length.isdigit():
                connection.send(body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_each_bad_field_is_a_400_and_the_job_stays_claimed(self, tmp_path):
        spec = probe_spec(count=1, name="malformed")
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            job_id = spec.jobs[0].job_id
            assert client.claim(campaign_id, "a")["job"]["job_id"] == job_id
            path = f"/campaigns/{campaign_id}/jobs/{job_id}/complete"
            bad_bodies = [
                {"worker": "a", "seconds": "abc", "payload": {"value": 0}},
                {"worker": "a", "seconds": 0.1, "payload": [1, 2]},
                {"worker": "a", "seconds": 0.1, "payload": {}, "cache": [1]},
                {"worker": "a", "seconds": 0.1, "payload": {}, "cache": {"x": "y"}},
            ]
            for bad in bad_bodies:
                body = json.dumps(bad).encode("utf-8")
                status, reply = self._post(service.url, path, body)
                assert status == 400, bad
                assert reply["error"], bad
            good = json.dumps(
                {"worker": "a", "seconds": 0.1, "payload": {"value": 0}}
            ).encode("utf-8")
            status, reply = self._post(
                service.url, path, good, content_length="x"
            )
            assert status == 400
            assert reply["error"]

            status = client.status(campaign_id)
            assert status["states"] == {job_id: "running"}
            assert "lease_lost_discards" not in status["robustness"]
            state_dir = tmp_path / "campaigns" / campaign_id / "state"
            assert not (state_dir / f"{job_id}.json").exists()

            committed = client.complete(
                campaign_id, job_id, "a", seconds=0.1, payload={"value": 0}
            )
            assert committed == {"committed": True, "attempts": 1}
            assert client.status(campaign_id)["complete"] is True


class TestRestart:
    def test_coordinator_restart_recovers_campaigns_and_state(self, tmp_path):
        """Kill the coordinator mid-campaign; a successor picks it all up.

        Finished jobs, the spec registry and dedupe identity live on disk;
        the replacement coordinator serves the half-done campaign, dedupes
        a resubmission onto it, and a worker finishes only the remainder.
        """
        spec = probe_spec(count=3, name="restart")
        root = str(tmp_path)
        with ServiceThread(root=root, poll=0.02) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            counters = run_worker(
                service.url, campaign=campaign_id, max_jobs=1
            )
            assert counters["executed"] == 1

        with ServiceThread(root=root, poll=0.02) as service:
            client = ServiceClient(service.url)
            resubmitted = client.submit(spec.to_dict())
            assert resubmitted["campaign"] == campaign_id
            assert resubmitted["created"] is False
            status = client.status(campaign_id)
            assert status["counts"]["done"] == 1
            counters = run_worker(service.url, campaign=campaign_id)
            assert counters["executed"] == 2  # only the unfinished jobs
            assert client.status(campaign_id)["complete"] is True
            service_json = client.artifact(campaign_id, "json")

        local = run_campaign(spec, jobs=1)
        assert normalized_artifact_json(service_json) == (
            normalized_artifact_json(local.to_json())
        )
