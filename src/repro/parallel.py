"""Process-pool helpers for the evaluation and synthesis sweeps.

The Phase II search and the Table I / Figure 4 harnesses are embarrassingly
parallel across genotypes and across workload rows: every task is a pure
function of its inputs.  :class:`WorkerPool` wraps
:class:`concurrent.futures.ProcessPoolExecutor` with the semantics those
callers need:

* **Deterministic result ordering** — ``map`` returns results in input
  order, regardless of which worker finished first, so seeded runs are
  bit-identical for any ``jobs`` setting.
* **Serial fallback** — ``jobs=1`` (the default everywhere) never spawns a
  process; the function is applied inline, which also keeps caches in the
  calling process warm.
* **Graceful degradation** — if worker processes cannot be used (pickling
  failure, broken pool, restricted environment), the pool falls back to
  serial execution instead of failing the experiment.
* **Worker supervision** — a worker process that dies mid-batch (SIGKILL,
  OOM, segfault) no longer takes the whole batch down: finished results
  are kept, the pool is respawned, and the unfinished items are
  resubmitted transparently.  An item that repeatedly kills its worker
  surfaces as :class:`WorkerCrashed` carrying the offending item index,
  instead of an indefinite hang or an all-or-nothing serial fallback.

The worker function is shipped to each worker once (via the pool
initializer), not once per task, so a task bound to a cell library is
pickled ``jobs`` times per pool rather than once per item.  A worker runs
nothing else at start-up: per-process state, such as the synthesis store
of :func:`repro.ga.pinopt.resolve_synthesis_cache`, is built on first use
in the process that needs it.

The ``jobs`` count used by the CLI and the benchmark harness defaults to the
``REPRO_JOBS`` environment variable (see :func:`resolve_jobs`).
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import BrokenExecutor, Future
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = [
    "WorkerCrashed",
    "WorkerPool",
    "resolve_jobs",
    "available_cpus",
    "JOBS_ENV_VAR",
]


class WorkerCrashed(RuntimeError):
    """A worker process died (and kept dying) while computing an item.

    Raised by :meth:`WorkerPool.map` / :meth:`WorkerPool.imap` when worker
    supervision gives up: either the same item was in flight across two
    consecutive pool crashes (it is almost certainly the killer) or the
    pool-restart budget is spent.  ``item_index`` names the input-order
    index of the offending item so callers can report the job it belongs
    to.  A crash is *not* silently retried in the parent process — a task
    that SIGKILLs its worker would take the whole run down with it.
    """

    def __init__(self, message: str, item_index: Optional[int] = None):
        super().__init__(message)
        self.item_index = item_index

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable supplying the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"


def available_cpus() -> int:
    """Number of CPUs usable by this process (at least 1)."""
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        return max(1, getter() or 1)
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve an explicit or environment-provided worker count.

    ``jobs`` wins when it is a positive integer; otherwise the ``REPRO_JOBS``
    environment variable is consulted; otherwise the result is 1 (serial).
    """
    if jobs is not None and jobs > 0:
        return jobs
    raw = os.environ.get(JOBS_ENV_VAR, "")
    try:
        value = int(raw)
    except ValueError:
        return 1
    return value if value > 0 else 1


# The worker function is installed once per worker process by the pool
# initializer and looked up by every subsequent task.
_WORKER_FUNCTION: Optional[Callable] = None


def _install_worker(function: Callable) -> None:
    global _WORKER_FUNCTION
    _WORKER_FUNCTION = function


# Marker tagging a task item shipped with the submitter's trace context.
_TRACE_TAG = "__repro_traceparent__"


def _ship(item):
    """Wrap a task item with the ambient trace context (when tracing).

    The envelope rides the existing pickle channel to the worker, where
    :func:`_call_worker` unwraps it and attaches the context, so spans a
    worker opens parent under the submitting process's span.  With
    tracing disabled this is one boolean test per submitted item.
    """
    from .obs.trace import current_traceparent, tracing_enabled

    if not tracing_enabled():
        return item
    traceparent = current_traceparent()
    if not traceparent:
        return item
    return (_TRACE_TAG, traceparent, item)


def _call_worker(item):
    assert _WORKER_FUNCTION is not None, "worker pool initializer did not run"
    if isinstance(item, tuple) and len(item) == 3 and item[0] == _TRACE_TAG:
        from .obs.trace import attach_context

        with attach_context(item[1]):
            return _WORKER_FUNCTION(item[2])
    return _WORKER_FUNCTION(item)


class WorkerPool:
    """An ordered ``map`` over a fixed function, optionally multi-process.

    The pool is lazy: worker processes are only started on the first parallel
    ``map`` call, and only when more than one worker is useful.  The number
    of worker processes is clamped to the CPUs actually available: every
    process past the core count merely duplicates work (each worker warms
    its own memo caches), so on a small machine a large ``jobs`` value
    silently degrades to what the hardware can exploit — results are
    identical either way.  Use as a context manager or call :meth:`close`
    explicitly.
    """

    #: Pool respawns allowed per map/imap call before WorkerCrashed is raised.
    MAX_POOL_RESTARTS = 3

    def __init__(self, function: Callable[[T], R], jobs: int = 1):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self._function = function
        self.jobs = jobs
        self.workers = min(jobs, available_cpus())
        self._executor = None
        self._broken = False
        #: Cumulative supervision counters (robustness telemetry).
        self.worker_crashes = 0
        self.pool_restarts = 0

    # -------------------------------------------------------------- #
    # Mapping
    # -------------------------------------------------------------- #
    def map(self, items: Sequence[T]) -> List[R]:
        """Apply the function to every item, returning results in order.

        Exceptions raised by the task function propagate unchanged, exactly
        as in a serial run.  A worker process that *dies* is handled by
        supervision: the pool is respawned and unfinished items resubmitted;
        a persistent killer item raises :class:`WorkerCrashed`.
        """
        return list(self.imap(items))

    def imap(self, items: Sequence[T]):
        """Lazily yield results in input order as they become available.

        Same semantics as :meth:`map` (ordering, serial fallback, worker
        supervision), but results stream out one by one, so a consumer can
        checkpoint each finished item before the whole batch is done — the
        campaign runner persists per-job state this way.
        """
        items = list(items)
        executor = None
        if not (self.workers <= 1 or self._broken or len(items) <= 1):
            executor = self._ensure_executor()
        if executor is None:
            for item in items:
                yield self._function(item)
            return
        yield from self._supervised(items, executor)

    # -------------------------------------------------------------- #
    # Supervised execution
    # -------------------------------------------------------------- #
    @staticmethod
    def _keepable(future: Future) -> bool:
        """Did this future finish with a genuine task outcome?

        Results and real task exceptions survive a pool crash; cancelled
        futures and infrastructure failures (BrokenExecutor) must re-run.
        """
        if not future.done() or future.cancelled():
            return False
        exception = future.exception()
        return exception is None or not isinstance(exception, BrokenExecutor)

    @staticmethod
    def _submit(executor, item) -> Future:
        """Submit one item; a broken pool yields an already-failed future.

        ``ProcessPoolExecutor.submit`` itself raises ``BrokenProcessPool``
        once a worker has died.  Recording that as the item's outcome lets
        supervision handle it exactly like a crash reported by ``result()``:
        the same blame rule, restart budget and resubmission.
        """
        try:
            return executor.submit(_call_worker, _ship(item))
        except BrokenExecutor as error:
            future: Future = Future()
            future.set_exception(error)
            return future

    def _supervised(self, items: Sequence[T], executor):
        """Yield results in order, respawning the pool around dead workers."""
        futures: List[Future] = [self._submit(executor, item) for item in items]
        blamed: Optional[int] = None
        restarts_this_batch = 0
        index = 0
        while index < len(items):
            try:
                result = futures[index].result()
            except pickle.PicklingError:
                # Unpicklable item: parallelism cannot work for this pool.
                # Keep everything already finished, run the rest inline.
                self._broken = True
                self._shutdown()
                for position in range(index, len(items)):
                    future = futures[position]
                    if self._keepable(future):
                        yield future.result()
                    else:
                        yield self._function(items[position])
                return
            except BrokenExecutor:
                # A worker process died.  The oldest unfinished item (this
                # one) is the prime suspect: if it was already blamed for
                # the previous crash, resubmitting it would kill the next
                # pool too — surface it instead of looping forever.
                self.worker_crashes += 1
                if blamed == index:
                    self._shutdown()
                    raise WorkerCrashed(
                        f"worker process died twice while computing item {index}; "
                        "not resubmitting it again",
                        item_index=index,
                    )
                if restarts_this_batch >= self.MAX_POOL_RESTARTS:
                    self._shutdown()
                    raise WorkerCrashed(
                        f"worker pool crashed around item {index} after "
                        f"{restarts_this_batch} restarts in one batch; giving up",
                        item_index=index,
                    )
                blamed = index
                restarts_this_batch += 1
                self.pool_restarts += 1
                self._shutdown()
                executor = self._ensure_executor()
                if executor is None:
                    # Could not respawn (restricted environment): finish the
                    # batch inline rather than dropping results.
                    self._broken = True
                    for position in range(index, len(items)):
                        future = futures[position]
                        if self._keepable(future):
                            yield future.result()
                        else:
                            yield self._function(items[position])
                    return
                for position in range(index, len(items)):
                    if not self._keepable(futures[position]):
                        futures[position] = self._submit(executor, items[position])
                continue
            yield result
            index += 1

    def _ensure_executor(self):
        if self._executor is not None:
            return self._executor
        try:
            from concurrent.futures import ProcessPoolExecutor

            # Pre-flight: an unpicklable worker function can never reach a
            # worker process; degrade to serial deterministically instead of
            # letting every worker die at initialisation (which supervision
            # would misread as a crashing task).
            pickle.dumps(self._function)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_install_worker,
                initargs=(self._function,),
            )
        except Exception:
            self._broken = True
            self._executor = None
        return self._executor

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def close(self) -> None:
        """Shut down worker processes (idempotent)."""
        self._shutdown()

    def _shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
