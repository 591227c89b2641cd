"""Service observability: /metrics, cancel, SSE metrics, stitched traces."""

import threading
import time

from repro.obs.metrics import reset_metrics
from repro.obs.trace import (
    TRACE_DIR_ENV_VAR,
    TRACE_ENV_VAR,
    job_span_id,
    load_trace,
    reset_trace_state,
)
from repro.obs.trace import span as trace_span
from repro.scenarios.campaign import CampaignJob, CampaignSpec
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.service.worker import WorkerAgent
from repro.telemetry import RunTelemetry


def probe_spec(count=3, name="obs", **extra):
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


def watch_events(url, campaign_id, collected):
    for event, data in ServiceClient(url).events(campaign_id):
        collected.append((event, data))


class TestMetricsEndpoint:
    def test_scrape_and_sse_metrics_frames(self, tmp_path):
        reset_metrics()
        spec = probe_spec(count=2, name="metered")
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            client = ServiceClient(service.url)
            text = client.metrics()
            # The scrape itself is the first counted request.
            assert "# TYPE repro_service_requests_total counter" in text
            assert "# TYPE repro_service_campaigns gauge" in text

            campaign_id = client.submit(spec.to_dict())["campaign"]
            events = []
            watcher = threading.Thread(
                target=watch_events,
                args=(service.url, campaign_id, events),
                daemon=True,
            )
            watcher.start()
            time.sleep(0.1)  # at least one pre-completion metrics frame
            counters = run_worker(service.url, campaign=campaign_id)
            assert counters["executed"] == 2
            client.wait(campaign_id, timeout=30)
            watcher.join(timeout=30)
            assert not watcher.is_alive()

            text = client.metrics()
            # Claim requests include the trailing "done" polls: >= one per job.
            claims = next(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith(
                    f'repro_service_claims_total{{campaign="{campaign_id}"}}'
                )
            )
            assert claims >= 2
            assert (
                f'repro_service_jobs_total{{campaign="{campaign_id}",'
                f'status="ok"}} 2' in text
            )
            assert "repro_service_campaigns 1" in text

        # The SSE stream carried live metrics frames mid-campaign, shaped
        # like the snapshot a concurrent scrape would report.
        metrics_frames = [data for event, data in events if event == "metrics"]
        assert metrics_frames
        frame = metrics_frames[-1]
        assert frame["campaign"] == campaign_id
        assert "repro_service_requests_total" in frame["metrics"]
        # First and last frames keep their historical shape.
        assert events[0][0] == "snapshot"
        assert events[-1][0] == "campaign"
        assert events[-1][1]["status"] == "complete"

    def test_uploaded_job_telemetry_reaches_metrics(self, tmp_path):
        """Layer counters reach /metrics only through uploaded payloads; a
        malformed record is dropped without failing its commit."""
        reset_metrics()
        spec = probe_spec(count=2, name="uploads")
        telemetry = RunTelemetry(label="probe")
        telemetry.count("solver", "conflicts", 5)
        payloads = [{"telemetry": telemetry.to_dict()}, {"telemetry": {"scopes": [1, 2]}}]
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            for payload in payloads:
                job_id = client.claim(campaign_id, "w")["job"]["job_id"]
                committed = client.complete(
                    campaign_id, job_id, "w", seconds=0.1, payload=payload
                )
                assert committed["committed"] is True
            text = client.metrics()
        lines = text.splitlines()
        assert f'repro_telemetry_solver_conflicts{{campaign="{campaign_id}"}} 5' in lines
        assert (
            f'repro_service_jobs_total{{campaign="{campaign_id}",status="ok"}} 2'
            in lines
        )


class TestCancel:
    def test_cancel_stops_claims_and_closes_streams(self, tmp_path):
        spec = probe_spec(count=3, name="cancelme", sleep=0.0)
        with ServiceThread(root=str(tmp_path), poll=0.02) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            events = []
            watcher = threading.Thread(
                target=watch_events,
                args=(service.url, campaign_id, events),
                daemon=True,
            )
            watcher.start()
            time.sleep(0.1)

            reply = client.cancel(campaign_id)
            assert reply == {"campaign": campaign_id, "cancelled": True}

            # No further claims succeed: workers drain away immediately.
            ticket = client.claim(campaign_id, "w1")
            assert ticket.get("done") is True
            assert ticket.get("cancelled") is True

            status = client.wait(campaign_id, timeout=30)
            assert status["cancelled"] is True
            assert status["complete"] is False  # jobs never ran

            watcher.join(timeout=30)
            assert not watcher.is_alive()
            assert events[-1][0] == "campaign"
            assert events[-1][1]["status"] == "cancelled"

            listing = client.campaigns()["campaigns"]
            (entry,) = [e for e in listing if e["campaign"] == campaign_id]
            assert entry["cancelled"] is True
            assert entry["complete"] is False
            assert entry["jobs"] == 3

    def test_cancel_survives_restart(self, tmp_path):
        """The cancel marker is persisted: a restarted coordinator keeps it."""
        spec = probe_spec(count=2, name="sticky")
        with ServiceThread(root=str(tmp_path)) as service:
            client = ServiceClient(service.url)
            campaign_id = client.submit(spec.to_dict())["campaign"]
            client.cancel(campaign_id)
        with ServiceThread(root=str(tmp_path)) as service:
            client = ServiceClient(service.url)
            assert client.status(campaign_id)["cancelled"] is True
            assert client.claim(campaign_id, "w1").get("cancelled") is True


class TestDistributedTrace:
    def test_two_worker_campaign_stitches_one_trace(self, tmp_path, monkeypatch):
        """Client -> coordinator -> two workers: one trace, fully parented.

        The client span's traceparent rides the submission request; the
        coordinator derives the campaign span under it and hands each
        claim ticket the job's deterministic traceparent; worker attempt
        spans parent under those.  The merged trace is a single tree.
        """
        trace_directory = tmp_path / "trace"
        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        monkeypatch.setenv(TRACE_DIR_ENV_VAR, str(trace_directory))
        reset_trace_state()
        spec = probe_spec(count=4, name="traced")
        try:
            with ServiceThread(root=str(tmp_path / "root"), poll=0.02) as service:
                with trace_span("client", campaign=spec.name) as client_span:
                    client = ServiceClient(service.url)
                    campaign_id = client.submit(spec.to_dict())["campaign"]
                    workers = [
                        threading.Thread(
                            target=run_worker,
                            args=(service.url,),
                            kwargs={
                                "campaign": campaign_id,
                                "worker_id": f"tracer-{index}",
                            },
                        )
                        for index in range(2)
                    ]
                    for thread in workers:
                        thread.start()
                    status = client.wait(campaign_id, timeout=60)
                    for thread in workers:
                        thread.join(timeout=30)
            assert status["complete"] is True
        finally:
            reset_trace_state()

        records = load_trace(str(trace_directory))
        trace_id = client_span.trace_id
        assert {record["trace"] for record in records} == {trace_id}

        (campaign_record,) = [r for r in records if r["name"] == "campaign"]
        assert campaign_record["span"] == job_span_id(
            trace_id, f"campaign:{campaign_id}"
        )
        assert campaign_record["parent"] == client_span.span_id
        assert campaign_record["attrs"]["status"] == "complete"
        assert not campaign_record.get("unfinished")

        job_records = [r for r in records if r["name"] == "job"]
        assert len(job_records) == 4
        for record in job_records:
            assert record["parent"] == campaign_record["span"]
            assert record["span"] == job_span_id(
                trace_id, record["attrs"]["job"]
            )
            assert record["attrs"]["status"] == "ok"

        attempts = [r for r in records if r["name"] == "attempt"]
        assert len(attempts) == 4  # one attempt per job, no faults
        job_spans = {record["span"] for record in job_records}
        assert all(record["parent"] in job_spans for record in attempts)
        assert all(not record.get("unfinished") for record in attempts)
