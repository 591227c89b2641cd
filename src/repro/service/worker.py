"""The pull-based worker agent: claim over HTTP, execute, upload.

Runnable on any machine that can reach the coordinator::

    python -m repro.service.worker --server http://coordinator:8765

The agent needs **no shared filesystem**: jobs arrive as JSON
(:class:`~repro.scenarios.campaign.CampaignJob` kind + params), execute
through the exact same :func:`~repro.scenarios.campaign._execute_job_task`
the local campaign runner fans over its worker pool, and finished payloads
are uploaded back.  Lease safety is the local runner's: its lease keeper
heartbeats the claimed job every TTL/3, and when a heartbeat comes back
409 — the coordinator reclaimed the lease — the computed result is
*discarded*, never uploaded, because a peer may already own the job.

With the remote cache enabled (default) the agent exports
``REPRO_CACHE_URL`` pointing at the coordinator before executing jobs, so
the synthesis cache stack inside :mod:`repro.ga.pinopt` reads through the
fleet-shared tier.  Before each job the agent resolves the process's store
(:func:`~repro.ga.pinopt.resolve_synthesis_cache`), so even the first job
finds the tier; after the job it flushes the tier's uploads, and the job's
counter deltas ride along with the completion upload and surface in the
campaign's robustness counters.

Fault injection composes: a ``REPRO_FAULTS=worker_kill:...`` spec SIGKILLs
the agent process at job start (the task hook runs in-process here), which
is exactly how the CI smoke leg murders one worker mid-campaign.
"""

from __future__ import annotations

import argparse
import os
import socket
import time
from typing import Dict, Optional

from ..ga.pinopt import resolve_synthesis_cache
from ..jobstore import LeaseLost
from ..obs.log import get_logger
from ..scenarios.campaign import CampaignJob, _execute_job_task, _LeaseKeeper
from .cache import CACHE_URL_ENV_VAR, RemoteCacheTier
from .client import ServiceClient
from .protocol import DEFAULT_POLL_SECONDS, ServiceError

__all__ = ["WorkerAgent", "main"]

#: Default-log sentinel: distinguishes "no log argument" (structured
#: worker logger) from an explicit ``log=None`` (silence, kept for tests).
_DEFAULT_LOG = object()


class WorkerAgent:
    """One pull-based worker attached to a coordinator."""

    def __init__(
        self,
        server: str,
        worker_id: Optional[str] = None,
        poll: float = DEFAULT_POLL_SECONDS,
        task_jobs: int = 1,
        remote_cache: bool = True,
        log=_DEFAULT_LOG,
    ):
        self.client = ServiceClient(server)
        if worker_id is None:
            worker_id = (
                f"{socket.gethostname()}:{os.getpid()}:{os.urandom(3).hex()}"
            )
        self.worker_id = worker_id
        self.poll = poll
        self.task_jobs = max(1, int(task_jobs))
        if log is _DEFAULT_LOG:
            log = get_logger("worker")
        self._log = log or (lambda message, **fields: None)
        if remote_cache:
            # The in-process synthesis stack picks the tier up from the
            # environment (resolve_synthesis_cache); an explicit
            # REPRO_CACHE_URL from the operator wins.
            os.environ.setdefault(CACHE_URL_ENV_VAR, self.client.base_url)
        self.counters: Dict[str, int] = {
            "executed": 0,
            "failed": 0,
            "discarded": 0,
        }

    # -------------------------------------------------------------- #
    # Main loop
    # -------------------------------------------------------------- #
    def run(
        self,
        campaign: Optional[str] = None,
        once: bool = False,
        max_jobs: Optional[int] = None,
    ) -> Dict[str, int]:
        """Pull and execute jobs until stopped.

        ``campaign`` pins the agent to one campaign id (default: serve
        every campaign the coordinator lists).  ``once`` exits as soon as
        every served campaign reports done; without it the agent keeps
        polling for new submissions.  ``max_jobs`` caps executed jobs
        (tests).
        """
        from ..backend import backend_report

        report = backend_report()
        self._log(
            f"[{self.worker_id}] compute backend: {report['active']}"
            + (
                f" (fallback: {report['fallback_reason']})"
                if report["fallback_reason"]
                else ""
            ),
            worker=self.worker_id,
            backend=report["active"],
            native_available=report["native_available"],
        )
        while True:
            if campaign is not None:
                campaign_ids = [campaign]
            else:
                campaign_ids = [
                    entry["campaign"]
                    for entry in self.client.campaigns().get("campaigns", [])
                ]
            all_done = bool(campaign_ids)
            claimed_any = False
            for campaign_id in campaign_ids:
                while True:
                    if (
                        max_jobs is not None
                        and self.counters["executed"] >= max_jobs
                    ):
                        return dict(self.counters)
                    try:
                        ticket = self.client.claim(campaign_id, self.worker_id)
                    except ServiceError as exc:
                        self._log(f"claim failed: {exc.message}")
                        all_done = False
                        break
                    if "job" in ticket:
                        claimed_any = True
                        all_done = False
                        self._execute(campaign_id, ticket)
                        continue
                    if not ticket.get("done"):
                        all_done = False  # backed-off or peer-held jobs remain
                    break
            if once and all_done:
                return dict(self.counters)
            if not claimed_any:
                time.sleep(self.poll)

    # -------------------------------------------------------------- #
    # One job
    # -------------------------------------------------------------- #
    def _execute(self, campaign_id: str, ticket: Dict) -> None:
        entry = ticket["job"]
        job = CampaignJob(
            job_id=str(entry["job_id"]),
            kind=str(entry["kind"]),
            params=dict(entry.get("params", {})),
        )
        lease_ttl = float(ticket.get("lease_ttl", 60.0))
        budget = str(ticket.get("budget", ""))
        traceparent = str(ticket.get("traceparent", ""))
        self._log(
            f"[{self.worker_id}] {campaign_id}/{job.job_id}: claimed "
            f"(attempt {ticket.get('attempt', 1)})",
            worker=self.worker_id,
            campaign=campaign_id,
            job=job.job_id,
            attempt=ticket.get("attempt", 1),
        )

        def beat(job_id: str) -> None:
            try:
                self.client.heartbeat(campaign_id, job_id, self.worker_id)
            except ServiceError as exc:
                if exc.status == 409:
                    raise LeaseLost(exc.message) from exc
                # Transient (network, coordinator restart): retry on the
                # next beat; the lease survives two more misses.

        keeper = _LeaseKeeper(beat, lease_ttl / 3.0, {job.job_id: job.job_id})
        store = resolve_synthesis_cache()
        tier = store if isinstance(store, RemoteCacheTier) else None
        cache_before = tier.remote_stats() if tier is not None else {}
        with keeper:
            result = _execute_job_task(
                (job, self.task_jobs, True, budget, traceparent)
            )

        if keeper.is_lost(job.job_id):
            # Lost-lease safety, worker side: the coordinator reclaimed the
            # job (we looked dead); a peer may be re-running it, so this
            # result must never be uploaded.
            self.counters["discarded"] += 1
            self._log(
                f"[{self.worker_id}] {campaign_id}/{job.job_id}: lease lost "
                f"mid-run; result discarded"
            )
            return

        cache_delta: Dict[str, float] = {}
        if tier is not None:
            tier.flush(timeout=min(lease_ttl, 10.0))
            after = tier.remote_stats()
            cache_delta = {
                key: after[key] - cache_before.get(key, 0)
                for key in after
                if after[key] - cache_before.get(key, 0)
            }
            if cache_delta.get("hits"):
                self._log(
                    f"[{self.worker_id}] {campaign_id}/{job.job_id}: "
                    f"remote-cache hits={cache_delta['hits']}"
                )

        try:
            if result.ok:
                self.client.complete(
                    campaign_id,
                    job.job_id,
                    self.worker_id,
                    seconds=result.seconds,
                    payload=result.payload,
                    cache=cache_delta or None,
                )
                self.counters["executed"] += 1
                self._log(
                    f"[{self.worker_id}] {campaign_id}/{job.job_id}: "
                    f"ok ({result.seconds:.1f}s)",
                    worker=self.worker_id,
                    campaign=campaign_id,
                    job=job.job_id,
                    status="ok",
                    seconds=round(result.seconds, 3),
                )
            else:
                self.client.fail(
                    campaign_id, job.job_id, self.worker_id, error=result.error
                )
                self.counters["failed"] += 1
                self._log(
                    f"[{self.worker_id}] {campaign_id}/{job.job_id}: "
                    f"{result.status} {result.error}",
                    worker=self.worker_id,
                    campaign=campaign_id,
                    job=job.job_id,
                    status=result.status,
                    error=result.error,
                )
        except ServiceError as exc:
            if exc.status == 409:
                self.counters["discarded"] += 1
                self._log(
                    f"[{self.worker_id}] {campaign_id}/{job.job_id}: "
                    f"discarded at commit ({exc.message})"
                )
            else:
                self.counters["failed"] += 1
                self._log(
                    f"[{self.worker_id}] {campaign_id}/{job.job_id}: "
                    f"upload failed ({exc.message})"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="Pull-based campaign worker agent",
    )
    parser.add_argument("--server", required=True, help="coordinator URL")
    parser.add_argument(
        "--campaign", default=None, help="serve only this campaign id"
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit when every served campaign is complete",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=DEFAULT_POLL_SECONDS,
        help="claim poll interval (seconds)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None, help="stop after N executed jobs"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per job (job-internal parallelism)",
    )
    parser.add_argument(
        "--worker-id", default=None, help="stable worker identity (default: generated)"
    )
    parser.add_argument(
        "--no-remote-cache",
        action="store_true",
        help="do not read through the coordinator's shared synthesis cache",
    )
    arguments = parser.parse_args(argv)
    agent = WorkerAgent(
        arguments.server,
        worker_id=arguments.worker_id,
        poll=arguments.poll,
        task_jobs=arguments.jobs,
        remote_cache=not arguments.no_remote_cache,
    )
    counters = agent.run(
        campaign=arguments.campaign,
        once=arguments.once,
        max_jobs=arguments.max_jobs,
    )
    agent._log(
        f"[{agent.worker_id}] done: {counters['executed']} executed, "
        f"{counters['failed']} failed, {counters['discarded']} discarded",
        worker=agent.worker_id,
        **counters,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
