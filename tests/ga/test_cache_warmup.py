"""Tests for the shared synthesis disk cache and the worker-pool warm-up."""

import os

from repro.ga.pinopt import (
    CACHE_DIR_ENV_VAR,
    PinAssignmentProblem,
    SynthesisDiskCache,
    warm_disk_cache,
)
from repro.parallel import WorkerPool, parallel_map, worker_warmups


class TestSharedDiskCache:
    def test_shared_returns_one_instance_per_directory(self, tmp_path):
        first = SynthesisDiskCache.shared(str(tmp_path))
        second = SynthesisDiskCache.shared(str(tmp_path))
        assert first is second
        other = SynthesisDiskCache.shared(str(tmp_path / "other"))
        assert other is not first

    def test_from_environment_is_shared(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        first = SynthesisDiskCache.from_environment()
        second = SynthesisDiskCache.from_environment()
        assert first is second

    def test_warm_disk_cache_is_registered(self):
        assert warm_disk_cache in worker_warmups()

    def test_warm_disk_cache_primes_the_shared_slot(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        cache = warm_disk_cache()
        assert cache is SynthesisDiskCache.from_environment()

    def test_warm_disk_cache_without_env(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        assert warm_disk_cache() is None

    def test_per_problem_hit_counters_are_deltas(
        self, tmp_path, two_sboxes, rng, monkeypatch
    ):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        first = PinAssignmentProblem(two_sboxes)
        genotype = first.random_genotype(rng)
        first.evaluate([genotype])
        assert first.cache_stats()["disk_hits"] == 0

        # A second problem over the SAME shared cache instance hits once —
        # and reports exactly its own hit, not the shared cumulative count.
        second = PinAssignmentProblem(two_sboxes)
        assert second.disk_cache is first.disk_cache
        second.evaluate([genotype])
        assert second.cache_stats()["disk_hits"] == 1
        assert second.cache_stats()["evaluations"] == 0
        # A problem constructed after that traffic starts from zero again.
        third = PinAssignmentProblem(two_sboxes)
        assert third.cache_stats()["disk_hits"] == 0


def _square(value):
    return value * value


def _boom():
    raise RuntimeError("warm-up failure must not kill the pool")


class TestWarmupHook:
    def test_warmups_run_in_workers(self, tmp_path, monkeypatch):
        """A pool spawn primes the cache in every worker without failing."""
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        results = parallel_map(_square, list(range(8)), jobs=2)
        assert results == [value * value for value in range(8)]

    def test_failing_warmup_is_swallowed(self, monkeypatch):
        from repro import parallel

        monkeypatch.setattr(parallel, "_WORKER_WARMUPS", [_boom])
        with WorkerPool(_square, jobs=2) as pool:
            assert pool.map([1, 2, 3]) == [1, 4, 9]
