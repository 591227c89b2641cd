"""Tests for the process's one synthesis store and its per-problem counters."""

from repro.ga.pinopt import (
    CACHE_DIR_ENV_VAR,
    PinAssignmentProblem,
    resolve_synthesis_cache,
)


class TestSharedDiskCache:
    def test_shared_returns_one_instance_per_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        first = resolve_synthesis_cache()
        second = resolve_synthesis_cache()
        assert first is second
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "other"))
        other = resolve_synthesis_cache()
        assert other is not first

    def test_from_environment_is_shared(self, tmp_path, monkeypatch):
        # The store is keyed by the absolute directory, however it is named.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, "store")
        first = resolve_synthesis_cache()
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "store"))
        second = resolve_synthesis_cache()
        assert first is second

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
