"""Lease-based job store: N processes pull pending jobs without double work.

The campaign runner's ``<state_dir>`` already holds one atomic state file
per finished job; this module promotes that directory into a shared *job
store* that several concurrent processes (the first step toward several
machines) can safely pull pending jobs from:

* **Claiming is an O_EXCL create** of a ``<job_id>.lease`` sidecar file —
  the filesystem arbitrates, exactly one claimant wins.
* **Leases expire.**  Every lease carries its owner id and an expiry
  timestamp; the owner refreshes it (heartbeat) while the job runs.  A
  lease whose expiry has passed — or whose owner process is provably dead
  on this host — is *reclaimable*.
* **Reclaiming is an atomic rename** of the stale lease to a
  claimant-private tombstone: when several processes spot the same expired
  lease, only one ``rename`` succeeds and the losers back off, so a
  crashed worker's job is re-run exactly once, from its last persisted
  state.
* **Attempt history is persisted** per job in a ``<job_id>.attempts.json``
  sidecar (owner, timestamps, outcome of every attempt), giving campaigns
  the per-job attempt/owner telemetry that proves no job ran twice.

The store knows nothing about what a "job" is — the campaign runner keeps
owning execution and its fingerprinted state files; this layer only
arbitrates *who* may run a job id right now.

Retry policy
------------

:class:`RetryPolicy` implements capped exponential backoff with
*deterministic, seeded* jitter: the delay for (job id, attempt) is a pure
function of both, so concurrent claimants spread out reproducibly instead
of thundering in lockstep.  :func:`classify_failure` separates transient
failures (crashed workers, exhausted solve budgets, I/O hiccups — worth
retrying) from permanent ones (bad parameters — retrying cannot help).

The ``clock_skew`` fault point (see :mod:`repro.faults`) shifts this
module's clock for chaos tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .faults import clock_skew_seconds, faults_enabled
from .obs.trace import current_traceparent, tracing_enabled
from .obs.trace import event as trace_event

__all__ = [
    "JobStore",
    "Lease",
    "LeaseLost",
    "RetryPolicy",
    "classify_failure",
    "DEFAULT_LEASE_TTL",
]

#: Default lease time-to-live in seconds.  Heartbeats refresh at TTL/3, so
#: a lease only expires after three consecutive missed heartbeats.
DEFAULT_LEASE_TTL = 60.0


class LeaseLost(RuntimeError):
    """A heartbeat found the lease gone or owned by someone else."""


@dataclass
class Lease:
    """A successfully claimed lease on one job id."""

    job_id: str
    owner: str
    expires: float
    path: str


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter."""

    max_attempts: int = 3
    base_delay: float = 0.1
    max_delay: float = 30.0
    #: Jitter fraction: the delay is scaled by a factor drawn (seeded,
    #: deterministically) from ``[1 - jitter, 1]``.
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def should_retry(self, attempt: int) -> bool:
        """May a job that has failed ``attempt`` times run again?"""
        return attempt < self.max_attempts

    def delay(self, job_id: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (first retry = 1).

        Pure function of (job id, attempt): the exponential delay is scaled
        by a jitter factor seeded from a hash of both, so reruns are
        byte-reproducible while concurrent claimants still de-synchronise.
        """
        if attempt < 1:
            return 0.0
        base = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        if not self.jitter:
            return base
        digest = hashlib.sha256(f"{job_id}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 - self.jitter * fraction)


#: Exception type names treated as transient without importing their modules.
_TRANSIENT_NAMES = frozenset(
    {
        "WorkerCrashed",
        "SolveBudgetExceeded",
        "BrokenExecutor",
        "BrokenProcessPool",
        "TimeoutError",
        "ConnectionError",
        "MemoryError",
    }
)


def classify_failure(
    exception: Optional[BaseException], error_text: str = ""
) -> str:
    """``"transient"`` (worth retrying) or ``"permanent"``.

    Crashed workers, exhausted solve budgets, and I/O-level failures are
    transient: a retry on a healthy worker (or with an escalated budget)
    can genuinely succeed.  Everything else — above all ``ValueError``-like
    bad-parameter failures — is permanent: re-running the same pure
    function on the same inputs reproduces the same error.  When the
    exception object did not survive pickling, the error text (which
    starts with the exception type name) is consulted instead.
    """
    if exception is not None:
        for klass in type(exception).__mro__:
            if klass.__name__ in _TRANSIENT_NAMES:
                return "transient"
        if isinstance(exception, OSError):
            return "transient"
        return "permanent"
    for name in _TRANSIENT_NAMES | {"OSError", "IOError"}:
        if name in error_text.split(":", 1)[0]:
            return "transient"
    return "permanent"


class JobStore:
    """Filesystem-backed lease arbitration over a campaign state directory.

    ``clock`` is injectable for tests; the production clock is
    ``time.time`` plus any active ``clock_skew`` fault offset.  All writes
    (lease creation, heartbeat rewrite, attempt history) are atomic at the
    filesystem level, so a SIGKILL at any instant leaves either the old or
    the new file — never a torn one — and concurrent processes on one
    directory can never both hold the same job.
    """

    def __init__(
        self,
        directory: str,
        owner: Optional[str] = None,
        lease_ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        if owner is None:
            token = os.urandom(4).hex()
            owner = f"{socket.gethostname()}:{os.getpid()}:{token}"
        self.owner = owner
        if lease_ttl is None:
            lease_ttl = DEFAULT_LEASE_TTL
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.lease_ttl = lease_ttl
        self._clock = clock
        #: Robustness counters (flow into campaign telemetry).
        self.claims = 0
        self.claim_conflicts = 0
        self.reclaims = 0

    # -------------------------------------------------------------- #
    # Clock (fault-injectable)
    # -------------------------------------------------------------- #
    def now(self) -> float:
        if faults_enabled():
            return self._clock() + clock_skew_seconds()
        return self._clock()

    # -------------------------------------------------------------- #
    # Paths
    # -------------------------------------------------------------- #
    def lease_path(self, job_id: str) -> str:
        return os.path.join(self.directory, f"{job_id}.lease")

    def attempts_path(self, job_id: str) -> str:
        return os.path.join(self.directory, f"{job_id}.attempts.json")

    # -------------------------------------------------------------- #
    # Claiming
    # -------------------------------------------------------------- #
    def claim(self, job_id: str) -> Optional[Lease]:
        """Try to claim ``job_id``; None when another live owner holds it.

        A stale lease (expired, or owned by a dead process on this host) is
        reclaimed first: the stale file is atomically renamed to a
        claimant-private tombstone — only one of several racing claimants
        wins the rename — and the claim then proceeds through the normal
        O_EXCL create.
        """
        path = self.lease_path(job_id)
        lease = self._try_create(job_id, path)
        if lease is not None:
            self.claims += 1
            self._record_attempt_start(job_id)
            return lease
        holder = self._read_lease(path)
        if holder is not None and not self._stale(holder):
            self.claim_conflicts += 1
            return None
        # Expired or unreadable (torn write during a crash): reclaim.
        if not self._reclaim(path):
            self.claim_conflicts += 1
            return None
        self.reclaims += 1
        lease = self._try_create(job_id, path)
        if lease is None:
            self.claim_conflicts += 1
            return None
        self.claims += 1
        self._record_attempt_start(job_id, reclaimed=True)
        if tracing_enabled():
            # The reclaim edge of the trace: attributed to the *surviving*
            # owner that stole the stale lease, under the job's span.
            trace_event(
                "reclaim",
                job=job_id,
                owner=self.owner,
                previous=str((holder or {}).get("owner", "")),
            )
        return lease

    def _try_create(self, job_id: str, path: str) -> Optional[Lease]:
        expires = self.now() + self.lease_ttl
        payload = json.dumps(
            {
                "job_id": job_id,
                "owner": self.owner,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "expires": expires,
            },
            sort_keys=True,
        )
        try:
            handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        with os.fdopen(handle, "w") as stream:
            stream.write(payload)
            stream.flush()
        return Lease(job_id=job_id, owner=self.owner, expires=expires, path=path)

    def _read_lease(self, path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r") as stream:
                data = json.load(stream)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _stale(self, holder: Dict[str, Any]) -> bool:
        """Expired, or provably dead owner on this host (fast reclaim)."""
        try:
            expires = float(holder.get("expires", 0.0))
        except (TypeError, ValueError):
            return True
        if expires <= self.now():
            return True
        if holder.get("host") == socket.gethostname():
            pid = holder.get("pid")
            if isinstance(pid, int) and pid > 0 and not _pid_alive(pid):
                return True
        return False

    def _reclaim(self, path: str) -> bool:
        """Atomically retire a stale lease file; True when *we* retired it."""
        tombstone = f"{path}.reclaimed.{os.getpid()}.{os.urandom(4).hex()}"
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return False  # another claimant won the race
        except OSError:
            return False
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        return True

    # -------------------------------------------------------------- #
    # Heartbeat / release
    # -------------------------------------------------------------- #
    def heartbeat(self, lease: Lease) -> Lease:
        """Extend the lease expiry; raises :class:`LeaseLost` when stolen."""
        holder = self._read_lease(lease.path)
        if holder is None or holder.get("owner") != self.owner:
            raise LeaseLost(
                f"lease on {lease.job_id!r} is no longer held by {self.owner!r}"
            )
        expires = self.now() + self.lease_ttl
        holder["expires"] = expires
        tmp = f"{lease.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as stream:
            stream.write(json.dumps(holder, sort_keys=True))
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, lease.path)
        lease.expires = expires
        return lease

    def holds(self, lease: Lease) -> bool:
        """Is this lease still ours on disk, right now?

        The commit-time safety check: a result computed under a lease that
        has since been reclaimed (clock skew, long pause) must be discarded,
        not committed — the thief may already be re-running the job.
        """
        holder = self._read_lease(lease.path)
        return holder is not None and holder.get("owner") == self.owner

    def release(self, lease: Lease, status: str = "ok") -> None:
        """Record the attempt outcome and drop the lease (idempotent)."""
        self._record_attempt_end(lease.job_id, status)
        holder = self._read_lease(lease.path)
        if holder is not None and holder.get("owner") == self.owner:
            try:
                os.unlink(lease.path)
            except OSError:
                pass

    # -------------------------------------------------------------- #
    # Attempt / owner history
    # -------------------------------------------------------------- #
    def attempts(self, job_id: str) -> List[Dict[str, Any]]:
        """Persisted attempt records for a job (oldest first)."""
        try:
            with open(self.attempts_path(job_id), "r") as stream:
                data = json.load(stream)
        except (OSError, ValueError):
            return []
        return data if isinstance(data, list) else []

    def _write_attempts(self, job_id: str, records: List[Dict[str, Any]]) -> None:
        # Only the lease holder writes this file, so read-modify-write is
        # race-free; the atomic replace protects against torn writes only.
        path = self.attempts_path(job_id)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as stream:
            stream.write(json.dumps(records, sort_keys=True))
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)

    def _record_attempt_start(self, job_id: str, reclaimed: bool = False) -> None:
        records = self.attempts(job_id)
        record: Dict[str, Any] = {
            "owner": self.owner,
            "started": self.now(),
            "status": "running",
        }
        if reclaimed:
            record["reclaimed"] = True
        if tracing_enabled():
            # Annotate the audit trail with the ambient trace context so a
            # post-mortem can join attempts to the recorded spans.
            traceparent = current_traceparent()
            if traceparent:
                record["traceparent"] = traceparent
        records.append(record)
        self._write_attempts(job_id, records)

    def _record_attempt_end(self, job_id: str, status: str) -> None:
        records = self.attempts(job_id)
        for record in reversed(records):
            if record.get("owner") == self.owner and record.get("status") == "running":
                record["status"] = status
                record["finished"] = self.now()
                break
        else:
            records.append(
                {"owner": self.owner, "status": status, "finished": self.now()}
            )
        self._write_attempts(job_id, records)

    def attempt_count(self, job_id: str) -> int:
        """Number of attempts ever started for this job."""
        return len(self.attempts(job_id))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True
    return True
