"""Tests for the process-pool helpers in :mod:`repro.parallel`."""

from __future__ import annotations

import concurrent.futures
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import (
    JOBS_ENV_VAR,
    WorkerCrashed,
    WorkerPool,
    available_cpus,
    resolve_jobs,
)


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("boom")
    return value


def _kill_worker_once(arg):
    """SIGKILL the worker on value 3 — but only the first time (marker)."""
    value, marker = arg
    if value == 3 and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _kill_worker_always(value):
    if value == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _executor_failing_submit(fail_on_call):
    """A ``ProcessPoolExecutor`` whose ``fail_on_call``-th ``submit`` raises.

    Calls are counted over every instance, so respawned pools share the
    count.  ``submit`` raises ``BrokenProcessPool`` on a real pool once one
    of its workers has died; this makes that race deterministic.
    """
    calls = [0]

    class FailingSubmitExecutor(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            calls[0] += 1
            if calls[0] == fail_on_call:
                raise BrokenProcessPool("a worker died before this submit")
            return super().submit(*args, **kwargs)

    return FailingSubmitExecutor


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "4")
        assert resolve_jobs(None) == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_garbage_environment_is_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        assert resolve_jobs(None) == 1
        monkeypatch.setenv(JOBS_ENV_VAR, "-2")
        assert resolve_jobs(None) == 1

    def test_zero_and_negative_fall_through(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-1) == 1


class TestWorkerPool:
    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError):
            WorkerPool(_square, jobs=0)

    def test_workers_clamped_to_available_cpus(self):
        pool = WorkerPool(_square, jobs=10_000)
        assert pool.jobs == 10_000
        assert pool.workers == min(10_000, available_cpus())
        pool.close()

    def test_serial_map_preserves_order(self):
        with WorkerPool(_square, jobs=1) as pool:
            assert pool.map([3, 1, 2]) == [9, 1, 4]

    @pytest.mark.usefixtures("four_cpus")
    def test_parallel_map_matches_serial(self):
        items = list(range(20))
        serial = [_square(item) for item in items]
        with WorkerPool(_square, jobs=2) as pool:
            assert pool.map(items) == serial

    def test_empty_input(self):
        with WorkerPool(_square, jobs=2) as pool:
            assert pool.map([]) == []

    @pytest.mark.usefixtures("four_cpus")
    def test_parallel_map_single_item_stays_inline(self):
        with WorkerPool(_square, jobs=4) as pool:
            assert pool.map([5]) == [25]

    @pytest.mark.usefixtures("four_cpus")
    def test_pool_reuse_across_batches(self):
        with WorkerPool(_square, jobs=2) as pool:
            assert pool.map([1, 2, 3]) == [1, 4, 9]
            assert pool.map([4, 5, 6]) == [16, 25, 36]

    @pytest.mark.usefixtures("four_cpus")
    def test_close_is_idempotent(self):
        pool = WorkerPool(_square, jobs=2)
        pool.map([1, 2])
        pool.close()
        pool.close()

    @pytest.mark.usefixtures("four_cpus")
    def test_task_exception_propagates_without_breaking_pool(self):
        # An error raised by the task function surfaces unchanged (no silent
        # serial re-run of the batch), and the pool stays usable.
        with WorkerPool(_fail_on_three, jobs=2) as pool:
            with pytest.raises(ValueError):
                pool.map([1, 2, 3, 4])
            assert not pool._broken
            assert pool.map([1, 2]) == [1, 2]

    @pytest.mark.usefixtures("four_cpus")
    def test_unpicklable_function_degrades_to_serial(self):
        captured = []

        def closure(value):  # closures do not pickle
            captured.append(value)
            return value + 1

        with WorkerPool(closure, jobs=2) as pool:
            assert pool.map([1, 2, 3]) == [2, 3, 4]


class TestWorkerPoolImap:
    @pytest.mark.usefixtures("four_cpus")
    def test_streams_in_order(self):
        with WorkerPool(_square, jobs=2) as pool:
            assert list(pool.imap([3, 1, 2])) == [9, 1, 4]

    def test_serial_imap_is_lazy(self):
        executed = []

        def tracked(value):
            executed.append(value)
            return value

        with WorkerPool(tracked, jobs=1) as pool:
            iterator = pool.imap([1, 2, 3])
            assert executed == []
            assert next(iterator) == 1
            # Only the consumed item has run: a consumer can checkpoint
            # between results and abort without executing the tail.
            assert executed == [1]

    @pytest.mark.usefixtures("four_cpus")
    def test_matches_map(self):
        items = list(range(15))
        with WorkerPool(_square, jobs=2) as pool:
            assert list(pool.imap(items)) == pool.map(items)

    def test_task_exception_propagates(self):
        with WorkerPool(_fail_on_three, jobs=1) as pool:
            iterator = pool.imap([1, 2, 3, 4])
            assert next(iterator) == 1
            assert next(iterator) == 2
            with pytest.raises(ValueError):
                next(iterator)

    @pytest.mark.usefixtures("four_cpus")
    def test_unpicklable_function_degrades_to_serial(self):
        def closure(value):
            return value + 1

        with WorkerPool(closure, jobs=2) as pool:
            assert list(pool.imap([1, 2, 3])) == [2, 3, 4]


class TestWorkerSupervision:
    @pytest.mark.usefixtures("four_cpus")
    def test_one_off_crash_recovers_transparently(self, tmp_path):
        # A worker SIGKILLed mid-batch must not take the batch down: the
        # pool respawns, the unfinished items are resubmitted, and the
        # caller sees the full in-order result set.
        marker = str(tmp_path / "killed.marker")
        items = [(value, marker) for value in range(6)]
        with WorkerPool(_kill_worker_once, jobs=2) as pool:
            assert pool.map(items) == [value * value for value in range(6)]
            assert pool.worker_crashes >= 1
            assert pool.pool_restarts >= 1
            # The pool stays usable for the next batch.
            marker2 = str(tmp_path / "unused.marker")
            with open(marker2, "w", encoding="utf-8"):
                pass
            assert pool.map([(7, marker2)] * 2) == [49, 49]

    @pytest.mark.usefixtures("four_cpus")
    def test_one_off_crash_recovers_in_imap(self, tmp_path):
        marker = str(tmp_path / "killed.marker")
        items = [(value, marker) for value in range(6)]
        with WorkerPool(_kill_worker_once, jobs=2) as pool:
            streamed = list(pool.imap(items))
        assert streamed == [value * value for value in range(6)]

    @pytest.mark.usefixtures("four_cpus")
    def test_persistent_killer_surfaces_worker_crashed(self):
        # An item that kills every worker it touches must surface as
        # WorkerCrashed (with the offending index) instead of an endless
        # respawn loop or a serial re-run that would kill the parent.
        with WorkerPool(_kill_worker_always, jobs=2) as pool:
            with pytest.raises(WorkerCrashed) as excinfo:
                pool.map([3, 1, 2, 4])
        assert excinfo.value.item_index is not None

    @pytest.mark.usefixtures("four_cpus")
    def test_broken_first_submission_is_respawned(self, monkeypatch):
        # The second submit of a fresh batch finds the pool broken: the
        # item must be resubmitted to a respawned pool, not leak
        # BrokenProcessPool to the caller.
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _executor_failing_submit(2)
        )
        with WorkerPool(_square, jobs=2) as pool:
            assert pool.map([1, 2, 3, 4]) == [1, 4, 9, 16]
            assert pool.worker_crashes == 1
            assert pool.pool_restarts == 1

    @pytest.mark.usefixtures("four_cpus")
    def test_broken_resubmission_follows_the_blame_rule(self, tmp_path, monkeypatch):
        # Six submits fill the first pool, and item 3 kills a worker.  The
        # first resubmission to the respawned pool then finds it broken too:
        # the blamed item was in flight across two crashes, so supervision
        # raises WorkerCrashed instead of leaking BrokenProcessPool.
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _executor_failing_submit(7)
        )
        marker = str(tmp_path / "killed.marker")
        items = [(value, marker) for value in range(6)]
        with WorkerPool(_kill_worker_once, jobs=2) as pool:
            with pytest.raises(WorkerCrashed) as excinfo:
                pool.map(items)
            assert pool.worker_crashes == 2
            assert pool.pool_restarts == 1
        assert excinfo.value.item_index in range(4)

    @pytest.mark.usefixtures("four_cpus")
    def test_restart_budget_is_per_batch(self, tmp_path):
        # A recovered crash in one batch must not eat into the budget of
        # the next: each map/imap call gets a fresh restart allowance.
        for batch in range(3):
            marker = str(tmp_path / f"killed.{batch}.marker")
            items = [(value, marker) for value in range(4)]
            with WorkerPool(_kill_worker_once, jobs=2) as pool:
                assert pool.map(items) == [value * value for value in range(4)]
