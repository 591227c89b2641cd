"""Wire protocol shared by the coordinator, the worker agent and clients.

One small module defines everything both sides of the HTTP boundary must
agree on, so the server and the clients can never drift apart:

* **Campaign identity** — :func:`campaign_fingerprint` hashes the
  canonical JSON of a :class:`~repro.scenarios.campaign.CampaignSpec`;
  two clients submitting the same spec deterministically land on the same
  campaign id (and therefore the same job set and state directory).
* **Cache identity** — :func:`cache_fingerprint` hashes a synthesis-cache
  key (effort, library fingerprint, signature) into the opaque token used
  by ``GET/PUT /cache/{fingerprint}``.
* **Server-sent events** — :func:`sse_event` / :func:`parse_sse` encode
  and decode the ``GET /campaigns/{id}/events`` stream.
* **Artifact normalisation** — :func:`normalized_artifact_json` /
  :func:`normalized_artifact_csv` strip wall-clock and provenance noise
  from campaign artifacts, so "byte-identical to a local run" is a single
  shared definition for tests, CI and operators.

The coordinator URL, the server's state root and the poll interval are
arguments (``--submit``, ``--server``, ``--root``, ``--poll``); the one
environment variable of the service layer is ``REPRO_CACHE_URL``, the
coordinator URL of the shared synthesis-cache tier (see
:mod:`repro.service.cache`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from typing import Any, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

__all__ = [
    "DEFAULT_POLL_SECONDS",
    "ServiceError",
    "campaign_fingerprint",
    "cache_fingerprint",
    "canonical_json",
    "sse_event",
    "parse_sse",
    "normalized_artifact_json",
    "normalized_artifact_csv",
]

#: Default poll interval: SSE snapshot cadence and worker claim backoff.
DEFAULT_POLL_SECONDS = 0.25


class ServiceError(RuntimeError):
    """An HTTP-level service failure (non-2xx response or bad request).

    ``status`` carries the HTTP status code on both sides: handlers raise
    it to produce an error response, clients raise it when they receive
    one.  Code 409 ("conflict") is the lease-safety verdict: the result a
    worker tried to commit was discarded because its lease was lost.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = int(status)
        self.message = message


# ------------------------------------------------------------------ #
# Identity
# ------------------------------------------------------------------ #
def canonical_json(data: Any) -> str:
    """The one canonical JSON rendering both sides hash (sorted, compact)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def campaign_fingerprint(spec_data: Mapping[str, Any]) -> str:
    """Deterministic campaign id for a spec's :meth:`to_dict` output.

    Concurrent clients posting the same spec dedupe onto one campaign —
    one id, one state directory, one set of jobs — because the id is a
    pure function of the spec content.
    """
    digest = hashlib.sha256(canonical_json(spec_data).encode("utf-8"))
    return f"c{digest.hexdigest()[:12]}"


def cache_fingerprint(
    effort: str, library: str, signature: Sequence[int]
) -> str:
    """Opaque token for one synthesis-cache key (the ``/cache/{fp}`` path).

    The key structure (effort, library fingerprint, merged-function
    signature) stays an implementation detail of the cache; the HTTP
    surface only ever sees this hash.
    """
    blob = f"{effort}|{library}|{','.join(str(int(v)) for v in signature)}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


# ------------------------------------------------------------------ #
# Server-sent events
# ------------------------------------------------------------------ #
def sse_event(event: str, data: Mapping[str, Any]) -> bytes:
    """Encode one SSE frame (``event:`` + single-line ``data:`` JSON)."""
    return (
        f"event: {event}\ndata: {canonical_json(data)}\n\n".encode("utf-8")
    )


def parse_sse(lines: Iterable[bytes]) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Decode an SSE byte-line stream into ``(event, data)`` pairs.

    Comment lines (``: keepalive``) and unknown fields are skipped, per
    the SSE spec; a frame without JSON data is dropped.
    """
    event = ""
    data_text = ""
    for raw in lines:
        line = raw.decode("utf-8", "replace").rstrip("\r\n")
        if not line:
            if event and data_text:
                try:
                    yield event, json.loads(data_text)
                except ValueError:
                    pass
            event = ""
            data_text = ""
            continue
        if line.startswith(":"):
            continue  # keepalive comment
        field, _, value = line.partition(":")
        value = value.lstrip(" ")
        if field == "event":
            event = value
        elif field == "data":
            data_text += value


# ------------------------------------------------------------------ #
# Artifact normalisation (the shared "byte-identical" definition)
# ------------------------------------------------------------------ #
def normalized_artifact_json(text: str) -> str:
    """Campaign JSON with timing/provenance noise zeroed.

    Seconds are wall-clock measurements; ``cached``/``robustness``/
    ``jobs`` describe *how* a run got its results (local worker pool vs a
    remote fleet).  Everything else — statuses, payloads, job sets, the
    merged telemetry — must be byte-identical between a local ``campaign``
    run and a service run of the same spec.
    """
    document = json.loads(text)
    for key in ("total_seconds", "mean_seconds", "wall_seconds"):
        if key in document:
            document[key] = 0.0
    document["job_seconds"] = {
        key: 0.0 for key in document.get("job_seconds", {})
    }
    document["robustness"] = {}
    document["campaign"] = {}
    document["jobs"] = 0
    for row in document.get("results", []):
        row["seconds"] = 0.0
        row["cached"] = False
    return json.dumps(document, indent=2, sort_keys=True)


def normalized_artifact_csv(text: str) -> str:
    """Campaign CSV with the ``seconds`` and ``cached`` columns zeroed.

    Parsed as CSV: a quoted cell such as a window's ``camo_blif`` spans lines.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return ""
    seconds_column = rows[0].index("seconds")
    cached_column = rows[0].index("cached")
    for row in rows[1:]:
        row[seconds_column] = "0"
        row[cached_column] = "0"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()[:-1]
