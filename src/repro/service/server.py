"""The campaign coordinator: an asyncio HTTP front end over the job store.

One coordinator process owns a *service root* directory::

    <root>/campaigns/<id>/spec.json    submitted spec (atomic write)
    <root>/campaigns/<id>/state/       JobStore-backed campaign state dir
    <root>/cache/                      shared synthesis-cache tier

and serves three kinds of traffic over plain HTTP/1.1 (stdlib asyncio,
no dependencies):

* **Submissions** — ``POST /campaigns`` validates a
  :class:`~repro.scenarios.campaign.CampaignSpec`, fingerprints it
  (:func:`~repro.service.protocol.campaign_fingerprint`) and materialises
  its jobs; resubmitting the same spec — even concurrently — dedupes onto
  the same campaign id and job set.
* **The worker protocol** — ``POST .../claim`` / ``jobs/{id}/heartbeat``
  / ``complete`` / ``fail`` proxy the lease arbitration of
  :class:`~repro.jobstore.JobStore` over HTTP, so pull-based workers on
  remote machines need no shared filesystem.  Completion is guarded by a
  commit-time lease check: a result uploaded under a lost lease is
  discarded with 409, never double-written.
* **Observation** — ``GET /campaigns/{id}`` (status + robustness
  counters), ``GET /campaigns/{id}/events`` (SSE stream of per-job
  claim/reclaim/retry/done transitions, driven off the jobstore lease and
  attempts sidecars), and ``GET /campaigns/{id}/artifacts/{json,csv,bench}``
  rendered through the same :class:`CampaignResult` artifact code the
  local CLI uses — byte-identical modulo timings.

The shared cache tier rides on the same server: ``GET/PUT
/cache/{fingerprint}`` is backed by the ordinary
:class:`~repro.ga.pinopt.SynthesisDiskCache` segment format, so a
coordinator cache directory is interchangeable with any ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..ga.pinopt import SynthesisDiskCache
from ..jobstore import JobStore, Lease, LeaseLost, RetryPolicy
from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..obs.trace import (
    attach_context,
    current_traceparent,
    event as trace_event,
    format_traceparent,
    job_span_id,
    new_trace_id,
    parse_traceparent,
    record_span,
    tracing_enabled,
)
from ..sat.solver import SolveBudget
from ..telemetry import RunTelemetry
from ..scenarios.campaign import (
    CampaignError,
    CampaignJob,
    CampaignResult,
    CampaignSpec,
    JobBook,
    JobResult,
    _atomic_write,
)
from .protocol import (
    DEFAULT_POLL_SECONDS,
    ServiceError,
    cache_fingerprint,
    campaign_fingerprint,
    sse_event,
)

__all__ = ["CampaignHandle", "CampaignService", "ServiceThread"]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _completion_fields(
    data: Dict[str, Any]
) -> Tuple[float, Dict[str, Any], Optional[Dict[str, float]]]:
    """``(seconds, payload, cache)`` of a complete request, checked up front.

    A malformed upload is a 400 before the lease or the state file is
    touched, so the job stays claimed and the worker can still commit it.
    """
    seconds = data.get("seconds", 0.0)
    payload = data.get("payload", {})
    cache = data.get("cache")
    if not _is_number(seconds):
        raise ServiceError(400, f"seconds must be a number, got {seconds!r}")
    if not isinstance(payload, dict):
        raise ServiceError(400, "payload must be a JSON object")
    if cache is not None and not (
        isinstance(cache, dict) and all(map(_is_number, cache.values()))
    ):
        raise ServiceError(400, "cache must be null or an object of numbers")
    return float(seconds), payload, cache


class CampaignHandle:
    """Coordinator-side state of one submitted campaign.

    The job lifecycle — finished jobs and their state files, attempt
    budgets, retry-or-terminal verdicts, robustness counters, job spans —
    is the campaign runner's :class:`~repro.scenarios.campaign.JobBook`;
    the handle adds the HTTP side: one :class:`JobStore` per remote worker
    for lease arbitration (the coordinator *is* the filesystem the workers
    no longer need), cancellation and the SSE views.  Scheduling metadata
    that is cheap to rebuild (backoff deadlines, failure counts) lives in
    memory; everything a restart must not lose (spec, finished job state,
    attempt history) is on disk.
    """

    def __init__(
        self,
        campaign_id: str,
        spec: CampaignSpec,
        directory: str,
        lease_ttl: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        solve_budget: Optional[SolveBudget] = None,
    ):
        self.campaign_id = campaign_id
        self.spec = spec
        self.directory = directory
        self.state_dir = os.path.join(directory, "state")
        os.makedirs(self.state_dir, exist_ok=True)
        self.lease_ttl = lease_ttl
        self.book = JobBook(spec, self.state_dir, retry_policy, solve_budget)
        #: Read-only store for lease/attempt inspection (never claims).
        self.inspector = JobStore(
            self.state_dir, owner=f"inspector:{campaign_id}", lease_ttl=lease_ttl
        )
        self._jobs = {job.job_id: job for job in spec.jobs}
        self._stores: Dict[str, JobStore] = {}
        self._leases: Dict[str, Tuple[str, Lease]] = {}
        self._started = time.monotonic()
        self._cancel_path = os.path.join(directory, "cancelled.json")
        self.cancelled = os.path.exists(self._cancel_path)
        self._trace_path = os.path.join(directory, "trace.json")
        self._campaign_parent = ""
        self._trace_started = time.time()
        self._trace_finished = False
        if tracing_enabled():
            self._init_trace()

    # -------------------------------------------------------------- #
    # Tracing
    # -------------------------------------------------------------- #
    def _init_trace(self) -> None:
        """Adopt the campaign's persisted trace context, creating it on the
        first submission.  When the submitting request carried a
        ``traceparent`` header (the CLI's client span), the campaign joins
        that trace; otherwise a fresh trace id is minted.  The context is
        persisted next to the spec so a coordinator restart — and every
        worker attempt — keeps stitching into the same trace."""
        book = self.book
        try:
            with open(self._trace_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            persisted = parse_traceparent(str(payload.get("traceparent", "")))
        except (OSError, ValueError):
            payload, persisted = {}, None
        if persisted is not None:
            book.trace_id, book.campaign_span_id = persisted
            self._campaign_parent = str(payload.get("parent", ""))
            started = payload.get("started")
            if isinstance(started, (int, float)):
                self._trace_started = float(started)
            return
        client = parse_traceparent(current_traceparent())
        book.trace_id = client[0] if client is not None else new_trace_id()
        self._campaign_parent = client[1] if client is not None else ""
        book.campaign_span_id = job_span_id(
            book.trace_id, f"campaign:{self.campaign_id}"
        )
        payload = {
            "traceparent": format_traceparent(book.trace_id, book.campaign_span_id),
            "parent": self._campaign_parent,
            "started": self._trace_started,
        }
        try:
            _atomic_write(self._trace_path, json.dumps(payload, sort_keys=True) + "\n")
        except OSError:
            pass

    def _finish_campaign_span(self, status: str) -> None:
        if not self.book.trace_id or self._trace_finished:
            return
        self._trace_finished = True
        record_span(
            "campaign",
            span_id=self.book.campaign_span_id,
            start=self._trace_started,
            duration=time.time() - self._trace_started,
            parent=self._campaign_parent,
            trace_id=self.book.trace_id,
            campaign=self.campaign_id,
            status=status,
            jobs=len(self.spec.jobs),
        )

    # -------------------------------------------------------------- #
    # Bookkeeping
    # -------------------------------------------------------------- #
    def job(self, job_id: str) -> CampaignJob:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(404, f"unknown job {job_id!r}")

    def store_for(self, worker: str) -> JobStore:
        store = self._stores.get(worker)
        if store is None:
            store = JobStore(
                self.state_dir, owner=f"remote:{worker}", lease_ttl=self.lease_ttl
            )
            self._stores[worker] = store
        return store

    # -------------------------------------------------------------- #
    # Worker protocol
    # -------------------------------------------------------------- #
    def claim(self, worker: str, poll: float) -> Dict[str, Any]:
        """Hand the next runnable job to ``worker`` (or done/wait)."""
        if not worker:
            raise ServiceError(400, "claim requires a worker id")
        if self.cancelled:
            return {"done": True, "cancelled": True}
        store = self.store_for(worker)
        obs_metrics.counter(
            "repro_service_claims_total", campaign=self.campaign_id
        )
        for job in self.spec.jobs:
            job_id = job.job_id
            if self.book.finished(job) is not None or self.book.backoff(job_id):
                continue
            # Claim under the job-span context so the jobstore's reclaim
            # evidence lands inside this campaign's trace.
            with attach_context(self.book.job_traceparent(job_id)):
                lease = store.claim(job_id)
            if lease is None:
                continue  # a live worker holds it
            previous = self._leases.get(job_id)
            if previous is not None and previous[1].path == lease.path:
                # The claim reclaimed a dead worker's expired lease.
                self.book.bump("worker_reclaims")
                obs_metrics.counter(
                    "repro_service_reclaims_total", campaign=self.campaign_id
                )
            self._leases[job_id] = (worker, lease)
            attempt, budget = self.book.begin(job_id)
            return {
                "job": {
                    "job_id": job_id,
                    "kind": job.kind,
                    "params": job.params,
                },
                "attempt": attempt,
                "lease_ttl": store.lease_ttl,
                "budget": budget,
                "traceparent": self.book.job_traceparent(job_id),
            }
        if self.complete():
            self._finish_campaign_span("complete")
            return {"done": True}
        return {"wait": poll}

    def _held_lease(self, worker: str, job_id: str) -> Tuple[JobStore, Lease]:
        entry = self._leases.get(job_id)
        store = self._stores.get(worker)
        if entry is None or entry[0] != worker or store is None:
            raise ServiceError(
                409, f"worker {worker!r} does not hold the lease on {job_id!r}"
            )
        return store, entry[1]

    def heartbeat(self, worker: str, job_id: str) -> Dict[str, Any]:
        began = time.monotonic()
        store, lease = self._held_lease(worker, job_id)
        try:
            store.heartbeat(lease)
        except LeaseLost as exc:
            self._leases.pop(job_id, None)
            obs_metrics.counter(
                "repro_service_lease_lost_total", campaign=self.campaign_id
            )
            raise ServiceError(409, str(exc))
        obs_metrics.observe(
            "repro_service_heartbeat_seconds",
            time.monotonic() - began,
            campaign=self.campaign_id,
        )
        return {"expires": lease.expires}

    def complete_job(
        self,
        worker: str,
        job_id: str,
        seconds: float,
        payload: Dict[str, Any],
        cache: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Any]:
        """Commit an uploaded result — unless the lease was lost (409)."""
        job = self.job(job_id)
        try:
            store, lease = self._held_lease(worker, job_id)
            if not store.holds(lease):
                self._leases.pop(job_id, None)
                raise ServiceError(
                    409, f"lease on {job_id!r} was reclaimed; result discarded"
                )
        except ServiceError:
            self.book.bump("lease_lost_discards")
            raise
        # The coordinator runs no job itself: an uploaded result is served
        # like one restored from the campaign state, as cached.
        result = JobResult(
            job_id=job_id,
            kind=job.kind,
            status="ok",
            seconds=seconds,
            payload=payload,
            cached=True,
        )
        self.book.succeed(job, result, owner=store.owner)
        store.release(lease, status="ok")
        self._leases.pop(job_id, None)
        for key, value in (cache or {}).items():
            self.book.bump(f"remote_cache_{key}", value)
        obs_metrics.counter(
            "repro_service_jobs_total", campaign=self.campaign_id, status="ok"
        )
        telemetry_dict = payload.get("telemetry")
        if isinstance(telemetry_dict, dict) and telemetry_dict:
            try:
                obs_metrics.absorb_telemetry(
                    RunTelemetry.from_dict(telemetry_dict),
                    campaign=self.campaign_id,
                )
            except ValueError:
                pass  # malformed worker telemetry never fails a commit
        if self.complete():
            self._finish_campaign_span("complete")
        return {"committed": True, "attempts": result.attempts}

    def fail_job(self, worker: str, job_id: str, error: str) -> Dict[str, Any]:
        """Record a failure: schedule a retry or finish the job terminally."""
        job = self.job(job_id)
        store, lease = self._held_lease(worker, job_id)
        result = JobResult(job_id=job_id, kind=job.kind, status="error", error=error)
        delay = self.book.fail(job, result, owner=store.owner)
        store.release(lease, status=result.status if delay is None else "retry")
        self._leases.pop(job_id, None)
        if delay is not None:
            obs_metrics.counter(
                "repro_service_retries_total", campaign=self.campaign_id
            )
            return {"retry": True, "delay": delay, "attempt": result.attempts}
        obs_metrics.counter(
            "repro_service_jobs_total", campaign=self.campaign_id, status=result.status
        )
        if self.complete():
            self._finish_campaign_span("complete")
        return {"terminal": result.status}

    def cancel(self) -> Dict[str, Any]:
        """Stop handing out work: claims drain with ``done`` from now on.

        The marker is persisted next to the spec, so a coordinator restart
        keeps the campaign cancelled.  Running attempts finish (or lose
        their lease); no new claims succeed."""
        if not self.cancelled:
            self.cancelled = True
            try:
                _atomic_write(
                    self._cancel_path,
                    json.dumps({"cancelled_at": time.time()}) + "\n",
                )
            except OSError:
                pass
            self.book.bump("cancelled")
            obs_metrics.counter(
                "repro_service_cancels_total", campaign=self.campaign_id
            )
            if self.book.trace_id:
                with attach_context(
                    format_traceparent(self.book.trace_id, self.book.campaign_span_id)
                ):
                    trace_event("cancel", campaign=self.campaign_id)
            self._finish_campaign_span("cancelled")
        return {"cancelled": True, "campaign": self.campaign_id}

    def finished(self) -> bool:
        """Terminal for observers: cancelled or every job done."""
        return self.cancelled or self.complete()

    # -------------------------------------------------------------- #
    # Observation
    # -------------------------------------------------------------- #
    def job_state(self, job_id: str) -> Tuple[str, str]:
        """Current ``(status, owner)`` of one job."""
        result = self.book.finished(self.job(job_id))
        if result is not None:
            return ("done" if result.ok else result.status), result.owner
        holder = self.inspector._read_lease(self.inspector.lease_path(job_id))
        if holder is not None:
            return "running", str(holder.get("owner", ""))
        return "pending", ""

    def complete(self) -> bool:
        """Every job finished (successfully or terminally)?"""
        return all(self.book.finished(job) is not None for job in self.spec.jobs)

    def robustness(self) -> Dict[str, float]:
        return self.book.robustness(self._stores.values())

    def status(self) -> Dict[str, Any]:
        counts: Dict[str, int] = {}
        states: Dict[str, str] = {}
        for job in self.spec.jobs:
            state, _ = self.job_state(job.job_id)
            states[job.job_id] = state
            counts[state] = counts.get(state, 0) + 1
        return {
            "campaign": self.campaign_id,
            "name": self.spec.name,
            "jobs": len(self.spec.jobs),
            "complete": self.complete(),
            "cancelled": self.cancelled,
            "counts": counts,
            "states": states,
            "robustness": self.robustness(),
        }

    def result(self) -> CampaignResult:
        """The campaign's current results, runner-artifact compatible."""
        return CampaignResult(
            name=self.spec.name,
            results=self.book.results(),
            total_seconds=time.monotonic() - self._started,
            jobs=1,
            robustness=self.robustness(),
        )

    def artifact(self, kind: str) -> Tuple[str, str]:
        """Render one artifact: returns ``(content_type, text)``."""
        result = self.result()
        if kind == "json":
            return "application/json", result.to_json() + "\n"
        if kind == "csv":
            return "text/csv", result.to_csv()
        if kind == "bench":
            payload = json.dumps(result.bench_payload(), indent=2, sort_keys=True)
            return "application/json", payload + "\n"
        raise ServiceError(404, f"unknown artifact kind {kind!r}")

    # -------------------------------------------------------------- #
    # SSE
    # -------------------------------------------------------------- #
    def _sse_key(self, job_id: str) -> Tuple[Tuple, List[Dict[str, Any]]]:
        """A job's SSE diff key ``(state, owner, attempt count, last attempt
        status)``, plus the attempt records it was read from."""
        state, owner = self.job_state(job_id)
        attempts = self.inspector.attempts(job_id)
        last = attempts[-1]["status"] if attempts else ""
        return (state, owner, len(attempts), last), attempts

    def snapshot_frame(self) -> Tuple[bytes, Dict[str, Tuple]]:
        """The initial SSE snapshot plus the diff baseline it establishes."""
        baseline = {job.job_id: self._sse_key(job.job_id)[0] for job in self.spec.jobs}
        states = {job_id: key[0] for job_id, key in baseline.items()}
        frame = sse_event(
            "snapshot", {"campaign": self.campaign_id, "jobs": states}
        )
        return frame, baseline

    def event_frames(
        self, previous: Dict[str, Tuple]
    ) -> Tuple[List[bytes], Dict[str, Tuple]]:
        """SSE frames for every per-job transition since ``previous``.

        Transitions are derived from the jobstore's own evidence — lease
        files and ``.attempts.json`` sidecars — not from in-memory
        scheduling state, so the stream reports what *actually* happened
        on disk (including reclaims of dead workers' leases).
        """
        frames: List[bytes] = []
        current: Dict[str, Tuple] = {}
        for job in self.spec.jobs:
            job_id = job.job_id
            key, attempts = self._sse_key(job_id)
            state, owner, _, last = key
            current[job_id] = key
            prev = previous.get(job_id, ("pending", "", 0, ""))
            if key == prev:
                continue
            if len(attempts) > prev[2]:
                record = attempts[-1]
                frames.append(
                    sse_event(
                        "reclaim" if record.get("reclaimed") else "claim",
                        {"job": job_id, "owner": str(record.get("owner", ""))},
                    )
                )
            if last != prev[3] and last in ("retry", "requeued"):
                frames.append(
                    sse_event("retry", {"job": job_id, "attempts": len(attempts)})
                )
            if state == "done" and prev[0] != "done":
                frames.append(sse_event("done", {"job": job_id, "owner": owner}))
            elif state in ("error", "timed_out") and prev[0] != state:
                frames.append(
                    sse_event(
                        "failed",
                        {
                            "job": job_id,
                            "status": state,
                            "error": self.book.finished(job).error,
                        },
                    )
                )
        return frames, current

    def final_frame(self) -> bytes:
        status = self.status()
        terminal = "cancelled" if self.cancelled else "complete"
        self._finish_campaign_span(terminal)
        return sse_event(
            "campaign",
            {
                "campaign": self.campaign_id,
                "status": terminal,
                "counts": status["counts"],
            },
        )

    def metrics_frame(self) -> bytes:
        """A live-metrics SSE frame: robustness counters plus the process
        registry snapshot (the same numbers ``GET /metrics`` renders)."""
        return sse_event(
            "metrics",
            {
                "campaign": self.campaign_id,
                "robustness": self.robustness(),
                "metrics": obs_metrics.registry().snapshot(),
            },
        )


class CampaignService:
    """The coordinator: campaign registry, request router, cache tier.

    All request handling is synchronous and runs between awaits on the
    event loop, so handlers never interleave — the single coordinator
    process is the serialization point the filesystem was in PR 7.
    """

    def __init__(
        self,
        root: str,
        lease_ttl: Optional[float] = None,
        poll: float = DEFAULT_POLL_SECONDS,
        retry_policy: Optional[RetryPolicy] = None,
        solve_budget: Optional[SolveBudget] = None,
    ):
        if not root:
            raise ServiceError(500, "a service root directory is required")
        self.root = root
        self.lease_ttl = lease_ttl
        self.poll = poll
        self.retry_policy = retry_policy
        self.solve_budget = solve_budget
        self.campaigns_dir = os.path.join(root, "campaigns")
        os.makedirs(self.campaigns_dir, exist_ok=True)
        cache_dir = os.path.join(root, "cache")
        os.makedirs(cache_dir, exist_ok=True)
        self.cache = SynthesisDiskCache(cache_dir)
        self._cache_index: Dict[str, Tuple[str, str, Tuple[int, ...]]] = {
            cache_fingerprint(effort, library, signature): (
                effort,
                library,
                signature,
            )
            for effort, library, signature, _ in self.cache.entries()
        }
        self.cache_counters: Dict[str, int] = {
            "gets": 0,
            "get_hits": 0,
            "get_misses": 0,
            "puts": 0,
        }
        self._handles: Dict[str, CampaignHandle] = {}
        self._recover()

    # -------------------------------------------------------------- #
    # Campaign registry
    # -------------------------------------------------------------- #
    def _recover(self) -> None:
        """Re-register every campaign found under the root (restart-safe)."""
        try:
            entries = sorted(os.listdir(self.campaigns_dir))
        except OSError:
            return
        for campaign_id in entries:
            spec_path = os.path.join(self.campaigns_dir, campaign_id, "spec.json")
            try:
                with open(spec_path, "r", encoding="utf-8") as handle:
                    spec = CampaignSpec.from_dict(json.load(handle))
            except (OSError, ValueError, CampaignError):
                continue
            self._handles[campaign_id] = self._handle_for(campaign_id, spec)

    def _handle_for(self, campaign_id: str, spec: CampaignSpec) -> CampaignHandle:
        return CampaignHandle(
            campaign_id,
            spec,
            os.path.join(self.campaigns_dir, campaign_id),
            lease_ttl=self.lease_ttl,
            retry_policy=self.retry_policy,
            solve_budget=self.solve_budget,
        )

    def submit(self, spec_data: Dict[str, Any]) -> Dict[str, Any]:
        try:
            spec = CampaignSpec.from_dict(spec_data)
        except CampaignError as exc:
            raise ServiceError(400, str(exc))
        campaign_id = campaign_fingerprint(spec.to_dict())
        existing = self._handles.get(campaign_id)
        if existing is not None:
            return {
                "campaign": campaign_id,
                "created": False,
                "jobs": len(existing.spec.jobs),
            }
        directory = os.path.join(self.campaigns_dir, campaign_id)
        _atomic_write(
            os.path.join(directory, "spec.json"),
            json.dumps(spec.to_dict(), indent=2, sort_keys=True),
        )
        self._handles[campaign_id] = self._handle_for(campaign_id, spec)
        return {"campaign": campaign_id, "created": True, "jobs": len(spec.jobs)}

    def campaign(self, campaign_id: str) -> CampaignHandle:
        handle = self._handles.get(campaign_id)
        if handle is None:
            raise ServiceError(404, f"unknown campaign {campaign_id!r}")
        return handle

    # -------------------------------------------------------------- #
    # Cache tier
    # -------------------------------------------------------------- #
    def cache_get(self, fingerprint: str) -> Dict[str, Any]:
        self.cache_counters["gets"] += 1
        key = self._cache_index.get(fingerprint)
        if key is None:
            self.cache_counters["get_misses"] += 1
            raise ServiceError(404, f"no cache entry {fingerprint!r}")
        effort, library, signature = key
        area = self.cache.get(effort, library, signature)
        if area is None:
            self.cache_counters["get_misses"] += 1
            raise ServiceError(404, f"no cache entry {fingerprint!r}")
        self.cache_counters["get_hits"] += 1
        return {
            "effort": effort,
            "library": library,
            "signature": list(signature),
            "area": area,
        }

    def cache_put(self, fingerprint: str, body: Dict[str, Any]) -> Dict[str, Any]:
        try:
            effort = str(body["effort"])
            library = str(body["library"])
            signature = tuple(int(value) for value in body["signature"])
            area = float(body["area"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(400, f"malformed cache entry: {exc}")
        if cache_fingerprint(effort, library, signature) != fingerprint:
            raise ServiceError(
                400, "cache entry does not match its fingerprint path"
            )
        self.cache.put(effort, library, signature, area)
        self._cache_index[fingerprint] = (effort, library, signature)
        self.cache_counters["puts"] += 1
        return {"stored": True}

    def cache_stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self.cache),
            "hits": self.cache.hits,
            "appends": self.cache.appends,
            **self.cache_counters,
        }

    # -------------------------------------------------------------- #
    # Router
    # -------------------------------------------------------------- #
    def handle(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, str, bytes]:
        """Route one request; returns ``(status, content_type, body)``."""
        try:
            return self._route(method, path, body)
        except ServiceError as exc:
            payload = json.dumps({"error": exc.message}).encode("utf-8")
            return exc.status, "application/json", payload

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(400, f"request body is not JSON: {exc}")
        if not isinstance(data, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return data

    @staticmethod
    def _ok(payload: Any, status: int = 200) -> Tuple[int, str, bytes]:
        text = json.dumps(payload, sort_keys=True)
        return status, "application/json", text.encode("utf-8")

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, str, bytes]:
        parts = [part for part in path.split("/") if part]
        obs_metrics.counter(
            "repro_service_requests_total",
            route=parts[0] if parts else "root",
            method=method,
        )
        if parts == ["healthz"] and method == "GET":
            return self._ok({"ok": True, "campaigns": len(self._handles)})
        if parts == ["metrics"] and method == "GET":
            obs_metrics.gauge("repro_service_campaigns", len(self._handles))
            obs_metrics.gauge(
                "repro_service_campaigns_active",
                sum(
                    1 for handle in self._handles.values() if not handle.finished()
                ),
            )
            text = obs_metrics.render_prometheus()
            return 200, "text/plain; version=0.0.4", text.encode("utf-8")
        if parts == ["campaigns"]:
            if method == "POST":
                submitted = self.submit(self._json_body(body))
                return self._ok(submitted, status=201 if submitted["created"] else 200)
            if method == "GET":
                return self._ok(
                    {
                        "campaigns": [
                            {
                                "campaign": campaign_id,
                                "name": handle.spec.name,
                                "jobs": len(handle.spec.jobs),
                                "complete": handle.complete(),
                                "cancelled": handle.cancelled,
                                "robustness": handle.robustness(),
                            }
                            for campaign_id, handle in sorted(self._handles.items())
                        ]
                    }
                )
        if parts[:1] == ["campaigns"] and len(parts) >= 2:
            handle = self.campaign(parts[1])
            rest = parts[2:]
            if not rest and method == "GET":
                return self._ok(handle.status())
            if rest == ["cancel"] and method == "POST":
                return self._ok(handle.cancel())
            if rest == ["claim"] and method == "POST":
                data = self._json_body(body)
                return self._ok(
                    handle.claim(str(data.get("worker", "")), self.poll)
                )
            if len(rest) == 3 and rest[0] == "jobs" and method == "POST":
                data = self._json_body(body)
                worker = str(data.get("worker", ""))
                job_id = rest[1]
                if rest[2] == "heartbeat":
                    return self._ok(handle.heartbeat(worker, job_id))
                if rest[2] == "complete":
                    seconds, payload, cache = _completion_fields(data)
                    return self._ok(
                        handle.complete_job(
                            worker, job_id, seconds, payload, cache=cache
                        )
                    )
                if rest[2] == "fail":
                    return self._ok(
                        handle.fail_job(worker, job_id, str(data.get("error", "")))
                    )
            if len(rest) == 2 and rest[0] == "artifacts" and method == "GET":
                content_type, text = handle.artifact(rest[1])
                return 200, content_type, text.encode("utf-8")
        if parts[:1] == ["cache"]:
            if parts == ["cache", "stats"] and method == "GET":
                return self._ok(self.cache_stats())
            if len(parts) == 2:
                if method == "GET":
                    return self._ok(self.cache_get(parts[1]))
                if method == "PUT":
                    return self._ok(
                        self.cache_put(parts[1], self._json_body(body))
                    )
        raise ServiceError(404, f"no route for {method} {path}")

    # -------------------------------------------------------------- #
    # asyncio HTTP plumbing
    # -------------------------------------------------------------- #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                header_blob = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=60.0
                )
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                ConnectionError,
            ):
                return
            try:
                head = header_blob.decode("latin-1")
                request_line, *header_lines = head.split("\r\n")
                method, path, _ = request_line.split(" ", 2)
            except ValueError:
                await self._write_response(
                    writer, 400, "application/json", b'{"error": "bad request"}'
                )
                return
            headers = {}
            for line in header_lines:
                name, _, value = line.partition(":")
                if _:
                    headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0") or 0)
            except ValueError:
                await self._write_response(
                    writer,
                    400,
                    "application/json",
                    b'{"error": "Content-Length must be an integer"}',
                )
                return
            body = await reader.readexactly(length) if length > 0 else b""

            # Routes match on the path alone: drop any query string.
            path = path.split("?", 1)[0]
            event_parts = [part for part in path.split("/") if part]
            if (
                method == "GET"
                and len(event_parts) == 3
                and event_parts[0] == "campaigns"
                and event_parts[2] == "events"
            ):
                await self._stream_events(writer, event_parts[1])
                return
            # Requests join the caller's trace: spans and events recorded
            # while handling parent under the client's ambient span.
            traceparent = headers.get("traceparent", "")
            if traceparent and tracing_enabled():
                with attach_context(traceparent):
                    status, content_type, payload = self.handle(method, path, body)
            else:
                status, content_type, payload = self.handle(method, path, body)
            await self._write_response(writer, status, content_type, payload)
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        payload: bytes,
    ) -> None:
        reason = http.client.responses.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _stream_events(
        self, writer: asyncio.StreamWriter, campaign_id: str
    ) -> None:
        """Serve one SSE subscription until the campaign completes."""
        try:
            handle = self.campaign(campaign_id)
        except ServiceError as exc:
            await self._write_response(
                writer,
                exc.status,
                "application/json",
                json.dumps({"error": exc.message}).encode("utf-8"),
            )
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1"))
            frame, baseline = handle.snapshot_frame()
            writer.write(frame)
            await writer.drain()
            while True:
                frames, baseline = handle.event_frames(baseline)
                for frame in frames:
                    writer.write(frame)
                if handle.finished():
                    writer.write(handle.final_frame())
                    await writer.drain()
                    return
                # Live metrics ride the same stream: one frame per poll,
                # mirroring what a /metrics scrape would report right now.
                writer.write(handle.metrics_frame())
                # Keepalive comment: clients with read timeouts see bytes
                # every poll even when nothing happened.
                writer.write(b": keepalive\n\n")
                await writer.drain()
                await asyncio.sleep(self.poll)
        except (ConnectionError, OSError):
            return  # subscriber went away

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Start the asyncio server; returns the ``asyncio.Server``."""
        return await asyncio.start_server(self._handle_connection, host, port)

    def run(self, host: str = "127.0.0.1", port: int = 8765) -> None:
        """Serve forever in the current thread (the ``repro serve`` verb)."""
        log = get_logger("serve")

        async def main() -> None:
            server = await self.start(host, port)
            addr = server.sockets[0].getsockname()
            log(
                f"serving campaigns on http://{addr[0]}:{addr[1]} (root {self.root})",
                host=addr[0],
                port=addr[1],
                root=self.root,
            )
            async with server:
                await server.serve_forever()

        asyncio.run(main())


class ServiceThread:
    """A coordinator running on a background thread (tests, benchmarks).

    ::

        with ServiceThread(root=tmp_path) as service:
            client = ServiceClient(service.url)
            ...
    """

    def __init__(self, root: str, host: str = "127.0.0.1", port: int = 0, **kwargs):
        self.service = CampaignService(root=root, **kwargs)
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self.url = ""

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("service thread failed to start")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def main() -> None:
            self._stop = asyncio.Event()
            server = await self.service.start(self._host, self._port)
            address = server.sockets[0].getsockname()
            self.url = f"http://{address[0]}:{address[1]}"
            self._ready.set()
            await self._stop.wait()
            server.close()
            await server.wait_closed()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
