"""HTTP client for the campaign coordinator (urllib, no dependencies).

:class:`ServiceClient` speaks every endpoint of
:mod:`repro.service.server`: submission, status, the worker protocol
(claim/heartbeat/complete/fail), SSE event streaming, artifact fetching
and the shared cache tier.  Both the ``repro campaign --submit`` CLI verb
and the worker agent are built on it.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..obs.trace import current_traceparent, tracing_enabled
from .protocol import ServiceError, parse_sse

__all__ = ["ServiceClient"]


class ServiceClient:
    """A thin, synchronous client for one coordinator URL."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -------------------------------------------------------------- #
    # Plumbing
    # -------------------------------------------------------------- #
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        raw: bool = False,
    ) -> Any:
        data = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        headers: Dict[str, str] = {}
        if data:
            headers["Content-Type"] = "application/json"
        if tracing_enabled():
            # Propagate the ambient span so coordinator-side records stitch
            # into the caller's trace (W3C-style context propagation).
            traceparent = current_traceparent()
            if traceparent:
                headers["traceparent"] = traceparent
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=data,
            method=method,
            headers=headers,
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except (ValueError, OSError, AttributeError):
                pass
            raise ServiceError(exc.code, detail or f"{method} {path}: HTTP {exc.code}")
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"{method} {path}: {exc.reason}")
        except OSError as exc:
            raise ServiceError(0, f"{method} {path}: {exc}")
        if raw:
            return body
        return json.loads(body.decode("utf-8")) if body else {}

    # -------------------------------------------------------------- #
    # Campaigns
    # -------------------------------------------------------------- #
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def submit(self, spec_data: Dict[str, Any]) -> Dict[str, Any]:
        """POST a spec's :meth:`to_dict`; returns campaign id + created flag."""
        return self._request("POST", "/campaigns", payload=spec_data)

    def campaigns(self) -> Dict[str, Any]:
        return self._request("GET", "/campaigns")

    def status(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/campaigns/{campaign_id}")

    def artifact(self, campaign_id: str, kind: str) -> str:
        """Fetch one artifact (``json`` / ``csv`` / ``bench``) as text."""
        body = self._request(
            "GET", f"/campaigns/{campaign_id}/artifacts/{kind}", raw=True
        )
        return body.decode("utf-8")

    def cancel(self, campaign_id: str) -> Dict[str, Any]:
        """Stop the campaign: no further claims succeed, streams close."""
        return self._request("POST", f"/campaigns/{campaign_id}/cancel")

    def metrics(self) -> str:
        """Scrape the coordinator's Prometheus-text ``GET /metrics``."""
        return self._request("GET", "/metrics", raw=True).decode("utf-8")

    # -------------------------------------------------------------- #
    # Worker protocol
    # -------------------------------------------------------------- #
    def claim(self, campaign_id: str, worker: str) -> Dict[str, Any]:
        return self._request(
            "POST", f"/campaigns/{campaign_id}/claim", payload={"worker": worker}
        )

    def heartbeat(self, campaign_id: str, job_id: str, worker: str) -> Dict[str, Any]:
        return self._request(
            "POST",
            f"/campaigns/{campaign_id}/jobs/{job_id}/heartbeat",
            payload={"worker": worker},
        )

    def complete(
        self,
        campaign_id: str,
        job_id: str,
        worker: str,
        seconds: float,
        payload: Dict[str, Any],
        cache: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "worker": worker,
            "seconds": seconds,
            "payload": payload,
        }
        if cache:
            body["cache"] = cache
        return self._request(
            "POST", f"/campaigns/{campaign_id}/jobs/{job_id}/complete", payload=body
        )

    def fail(
        self, campaign_id: str, job_id: str, worker: str, error: str
    ) -> Dict[str, Any]:
        return self._request(
            "POST",
            f"/campaigns/{campaign_id}/jobs/{job_id}/fail",
            payload={"worker": worker, "error": error},
        )

    # -------------------------------------------------------------- #
    # Events
    # -------------------------------------------------------------- #
    def events(
        self, campaign_id: str
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Subscribe to a campaign's SSE stream; yields (event, data).

        The stream ends when the coordinator closes it (after the final
        ``campaign`` completion event).  The per-read timeout is the
        client timeout; the coordinator's keepalive comments arrive every
        poll interval, so a healthy stream never trips it.
        """
        request = urllib.request.Request(
            f"{self.base_url}/campaigns/{campaign_id}/events"
        )
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, f"events: HTTP {exc.code}")
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"events: {exc.reason}")
        with response:
            yield from parse_sse(iter(response.readline, b""))

    def wait(
        self,
        campaign_id: str,
        timeout: Optional[float] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, Any]:
        """Block until the campaign completes; returns the final status.

        Primarily consumes the SSE stream (reporting per-job transitions
        through ``progress``); if the stream drops, falls back to status
        polling so a transient network blip never strands a waiter.
        """
        deadline = time.monotonic() + timeout if timeout else None
        report = progress or (lambda message: None)
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(0, f"campaign {campaign_id} wait timed out")
            try:
                for event, data in self.events(campaign_id):
                    if event == "campaign" and data.get("status") in (
                        "complete",
                        "cancelled",
                    ):
                        return self.status(campaign_id)
                    if event in ("claim", "reclaim", "done", "failed", "retry"):
                        job = data.get("job", "")
                        owner = data.get("owner", "")
                        report(
                            f"{job}: {event}" + (f" ({owner})" if owner else "")
                        )
            except ServiceError:
                pass  # stream dropped; fall back to polling
            try:
                status = self.status(campaign_id)
                if status.get("complete") or status.get("cancelled"):
                    return status
            except ServiceError:
                pass
            time.sleep(0.5)

    # -------------------------------------------------------------- #
    # Cache tier
    # -------------------------------------------------------------- #
    def cache_get(self, fingerprint: str) -> Dict[str, Any]:
        return self._request("GET", f"/cache/{fingerprint}")

    def cache_put(self, fingerprint: str, entry: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("PUT", f"/cache/{fingerprint}", payload=entry)

    def cache_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/cache/stats")
