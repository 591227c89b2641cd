"""The shared synthesis-cache tier: read-through get, write-behind put.

:class:`RemoteCacheTier` wraps the local
:class:`~repro.ga.pinopt.SynthesisDiskCache` surface around the
coordinator's ``GET/PUT /cache/{fingerprint}`` endpoints, so a fleet of
workers shares one synthesis cache without sharing a filesystem:

* **get** consults the local store first (same hit accounting as before);
  on a local miss it asks the coordinator and — on a remote hit — writes
  the entry through into the local store, so each signature crosses the
  network at most once per worker.
* **put** lands locally at once and is uploaded *behind* the caller by a
  daemon thread: synthesis results are pure data keyed by content, so
  nothing waits on the network and a lost upload costs only a future
  remote miss, never correctness.

The tier duck-types the disk cache (``get``/``put``/``hits``/``loaded``/
``len``), so :class:`~repro.ga.pinopt.PinAssignmentProblem` uses either
interchangeably; ``remote_stats()`` adds the tier's own counters, which
:meth:`~repro.ga.pinopt.PinAssignmentProblem.cache_stats` surfaces as
``remote_*`` telemetry.  Wired up via ``REPRO_CACHE_URL``:
:func:`repro.ga.pinopt.resolve_synthesis_cache` builds one tier per
process, so each process has its own upload queue, thread and counters.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from ..ga.pinopt import SynthesisDiskCache
from .protocol import cache_fingerprint

__all__ = ["CACHE_URL_ENV_VAR", "RemoteCacheTier"]

#: Environment variable naming the coordinator URL of the shared cache tier.
CACHE_URL_ENV_VAR = "REPRO_CACHE_URL"


class RemoteCacheTier:
    """A synthesis cache backed by a coordinator over HTTP.

    ``local`` is the near store (usually the ``REPRO_CACHE_DIR`` disk
    cache; an in-memory dict when none is configured).  All network
    failures degrade silently to local-only behaviour — the cache is an
    optimisation, never a dependency.
    """

    def __init__(
        self,
        url: str,
        local: Optional[SynthesisDiskCache] = None,
        timeout: float = 10.0,
    ):
        self.url = url.rstrip("/")
        self.local = local
        self.timeout = timeout
        self._memory: Dict[Tuple[str, str, Tuple[int, ...]], float] = {}
        self._known_remote: set = set()
        self._pending: List[Tuple[str, Dict]] = []
        self._condition = threading.Condition()
        self._uploader: Optional[threading.Thread] = None
        self.remote_hits = 0
        self.remote_misses = 0
        self.remote_puts = 0
        self.remote_errors = 0
        #: Local-surface counters (duck-typing the disk cache).
        self.hits = 0

    # -------------------------------------------------------------- #
    # Local surface (disk-cache compatible)
    # -------------------------------------------------------------- #
    @property
    def loaded(self) -> int:
        return self.local.loaded if self.local is not None else 0

    def __len__(self) -> int:
        if self.local is not None:
            return len(self.local)
        return len(self._memory)

    def _local_get(self, effort: str, library: str, signature: Tuple[int, ...]):
        if self.local is not None:
            return self.local.get(effort, library, signature)
        return self._memory.get((effort, library, signature))

    def _local_put(
        self, effort: str, library: str, signature: Tuple[int, ...], area: float
    ) -> None:
        if self.local is not None:
            self.local.put(effort, library, signature, area)
        else:
            self._memory[(effort, library, signature)] = area

    # -------------------------------------------------------------- #
    # Read-through get
    # -------------------------------------------------------------- #
    def get(
        self, effort: str, library: str, signature: Tuple[int, ...]
    ) -> Optional[float]:
        area = self._local_get(effort, library, signature)
        if area is not None:
            self.hits += 1
            return area
        fingerprint = cache_fingerprint(effort, library, signature)
        request = urllib.request.Request(f"{self.url}/cache/{fingerprint}")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                entry = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                self.remote_misses += 1
            else:
                self.remote_errors += 1
            return None
        except (urllib.error.URLError, OSError, ValueError):
            self.remote_errors += 1
            return None
        try:
            area = float(entry["area"])
        except (KeyError, TypeError, ValueError):
            self.remote_errors += 1
            return None
        self.remote_hits += 1
        self.hits += 1
        self._known_remote.add(fingerprint)
        self._local_put(effort, library, signature, area)
        return area

    # -------------------------------------------------------------- #
    # Write-behind put
    # -------------------------------------------------------------- #
    def put(
        self, effort: str, library: str, signature: Tuple[int, ...], area: float
    ) -> None:
        self._local_put(effort, library, signature, area)
        fingerprint = cache_fingerprint(effort, library, signature)
        if fingerprint in self._known_remote:
            return  # served from remote: the coordinator already has it
        self._known_remote.add(fingerprint)
        body = {
            "effort": effort,
            "library": library,
            "signature": list(signature),
            "area": float(area),
        }
        with self._condition:
            self._pending.append((fingerprint, body))
            if self._uploader is None or not self._uploader.is_alive():
                self._uploader = threading.Thread(target=self._drain, daemon=True)
                self._uploader.start()
            self._condition.notify_all()

    def _drain(self) -> None:
        while True:
            with self._condition:
                if not self._pending:
                    self._condition.notify_all()
                    return
                fingerprint, body = self._pending.pop(0)
            self._upload(fingerprint, body)
            with self._condition:
                if not self._pending:
                    self._condition.notify_all()

    def _upload(self, fingerprint: str, body: Dict) -> None:
        request = urllib.request.Request(
            f"{self.url}/cache/{fingerprint}",
            data=json.dumps(body).encode("utf-8"),
            method="PUT",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                pass
            self.remote_puts += 1
        except (urllib.error.URLError, OSError):
            self.remote_errors += 1

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until the upload queue drains (True) or ``timeout`` passes.

        Workers call this before reporting a job complete, so the
        coordinator's cache is warm for whichever peer claims next.
        """
        with self._condition:
            while self._pending:
                if not self._condition.wait(timeout=timeout):
                    return False
        uploader = self._uploader
        if uploader is not None and uploader.is_alive():
            uploader.join(timeout=timeout)
        return not self._pending

    # -------------------------------------------------------------- #
    # Telemetry
    # -------------------------------------------------------------- #
    def remote_stats(self) -> Dict[str, int]:
        """The tier's own counters (``remote_*`` in problem cache stats)."""
        return {
            "hits": self.remote_hits,
            "misses": self.remote_misses,
            "puts": self.remote_puts,
            "errors": self.remote_errors,
        }
