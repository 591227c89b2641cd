"""Unit tests for the persistent (REPRO_CACHE_DIR) synthesis cache."""

import dataclasses
import json
import os

from repro.evaluation.workloads import get_profile
from repro.ga import pinopt
from repro.ga.engine import GAParameters
from repro.ga.pinopt import (
    CACHE_DIR_ENV_VAR,
    PinAssignmentProblem,
    SynthesisDiskCache,
    library_fingerprint,
    optimize_pin_assignment,
    resolve_synthesis_cache,
)
from repro.scenarios.campaign import CampaignSpec, run_campaign

LIB = "deadbeefcafe0000"  # an arbitrary library fingerprint


class TestSynthesisDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = SynthesisDiskCache(str(tmp_path))
        signature = (4, 0x1234, 0x5678)
        assert cache.get("fast", LIB, signature) is None
        cache.put("fast", LIB, signature, 42.5)
        assert cache.get("fast", LIB, signature) == 42.5
        # Keyed by effort and library as well: either differing is a miss.
        assert cache.get("standard", LIB, signature) is None
        assert cache.get("fast", "0" * 16, signature) is None
        # A fresh instance reloads the appended entry from disk.
        reloaded = SynthesisDiskCache(str(tmp_path))
        assert reloaded.loaded == 1
        assert reloaded.get("fast", LIB, signature) == 42.5

    def test_put_is_idempotent(self, tmp_path):
        cache = SynthesisDiskCache(str(tmp_path))
        cache.put("fast", LIB, (2, 9), 1.0)
        cache.put("fast", LIB, (2, 9), 1.0)
        # Appends land in this process's private segment file.
        with open(cache.segment_path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_concurrent_writer_segments_merge_on_load(self, tmp_path):
        # Two "processes" (distinct segment files) write disjoint entries;
        # a fresh load sees the union, and neither writer can tear the
        # other's lines because they never share an append target.
        writer_a = SynthesisDiskCache(str(tmp_path))
        writer_b = SynthesisDiskCache(str(tmp_path))
        writer_b.segment_path = str(tmp_path / "synthesis_cache.99999.jsonl")
        writer_a.put("fast", LIB, (2, 1), 1.0)
        writer_b.put("fast", LIB, (2, 2), 2.0)
        writer_a.put("fast", LIB, (2, 3), 3.0)
        merged = SynthesisDiskCache(str(tmp_path))
        assert merged.loaded == 3
        for signature, area in [((2, 1), 1.0), ((2, 2), 2.0), ((2, 3), 3.0)]:
            assert merged.get("fast", LIB, signature) == area

    def test_corrupting_writer_damages_only_its_own_line(self, tmp_path):
        # Regression: a writer crashing mid-append tears only the final
        # line of *its own* segment — every earlier entry and everything a
        # concurrent sibling wrote must survive the reload.
        victim = SynthesisDiskCache(str(tmp_path))
        sibling = SynthesisDiskCache(str(tmp_path))
        sibling.segment_path = str(tmp_path / "synthesis_cache.99998.jsonl")
        victim.put("fast", LIB, (2, 1), 1.0)
        sibling.put("fast", LIB, (2, 2), 2.0)
        victim.put("fast", LIB, (2, 3), 3.0)
        # Torn write: the victim dies mid-append of its last line.
        with open(victim.segment_path, "r+", encoding="utf-8") as handle:
            text = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        merged = SynthesisDiskCache(str(tmp_path))
        assert merged.loaded == 2
        assert merged.get("fast", LIB, (2, 1)) == 1.0
        assert merged.get("fast", LIB, (2, 2)) == 2.0
        assert merged.get("fast", LIB, (2, 3)) is None  # the torn entry

    def test_corrupt_and_alien_lines_skipped(self, tmp_path):
        path = tmp_path / SynthesisDiskCache.FILENAME
        lines = [
            json.dumps({"effort": "fast", "library": LIB, "signature": [2, 5],
                        "area": 3.0}),
            "{torn line",
            json.dumps({"unrelated": True}),
            "",
            json.dumps({"effort": "fast", "signature": [2, 6], "area": 4.0}),
            json.dumps({"effort": "fast", "library": LIB, "signature": [2, 6],
                        "area": 4.0}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cache = SynthesisDiskCache(str(tmp_path))
        # The library-less line predates the key format and is skipped too.
        assert cache.loaded == 2
        assert cache.get("fast", LIB, (2, 5)) == 3.0
        assert cache.get("fast", LIB, (2, 6)) == 4.0

    def test_library_fingerprint_is_stable_and_discriminating(self, library):
        from repro.netlist.library import CellLibrary

        fingerprint = library_fingerprint(library)
        assert fingerprint == library_fingerprint(library)
        # Dropping a cell changes the synthesis-relevant content.
        smaller = CellLibrary("sub", library.cells()[:-1])
        assert library_fingerprint(smaller) != fingerprint

    def test_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        assert resolve_synthesis_cache() is None
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "sub"))
        cache = resolve_synthesis_cache()
        assert isinstance(cache, SynthesisDiskCache)
        assert (tmp_path / "sub").is_dir()


class TestProblemIntegration:
    def test_second_problem_reads_through(self, tmp_path, two_sboxes, rng, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setattr(pinopt, "_STORES", {})
        problem = PinAssignmentProblem(two_sboxes)
        genotype = problem.random_genotype(rng)
        area = problem.evaluate([genotype])
        assert problem.cache_stats()["evaluations"] == 1
        assert problem.cache_stats()["disk_hits"] == 0

        # A fresh process-wide store, as in a new process: it loads the
        # entry the first problem appended.
        monkeypatch.setattr(pinopt, "_STORES", {})
        fresh = PinAssignmentProblem(two_sboxes)
        assert fresh.disk_cache is not problem.disk_cache
        assert fresh.evaluate([genotype]) == area
        stats = fresh.cache_stats()
        assert stats["evaluations"] == 0
        assert stats["disk_hits"] == 1

    def test_parallel_run_writes_only_the_parent_segment(
        self, tmp_path, two_sboxes, monkeypatch, four_cpus
    ):
        # Four CPUs reported, so jobs=2 synthesises on two worker processes.
        # Workers only synthesise; the parent alone reads and appends to the
        # store, so its segment is the only one and holds its appends.
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setattr(pinopt, "_STORES", {})
        result = optimize_pin_assignment(
            two_sboxes,
            parameters=GAParameters(population_size=4, generations=2, seed=3),
            jobs=2,
        )
        cache = resolve_synthesis_cache()
        segments = sorted(tmp_path.glob(SynthesisDiskCache.SEGMENT_PATTERN))
        assert [str(path) for path in segments] == [cache.segment_path]
        with open(cache.segment_path, encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == cache.appends == result.cache_stats["evaluations"] > 0

    def test_forked_campaign_workers_write_their_own_segments(
        self, tmp_path, monkeypatch, four_cpus
    ):
        # The parent resolves its store, then forks two campaign workers that
        # run the Table I rows.  Each worker must build its own store and
        # append to a segment named by its own pid, never to the parent's.
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setattr(pinopt, "_STORES", {})
        store = resolve_synthesis_cache()
        profile = dataclasses.replace(
            get_profile("quick"), ga_population=4, ga_generations=1
        )
        spec = CampaignSpec.table1(profile, [("PRESENT", 2), ("DES", 2)])
        assert run_campaign(spec, jobs=2).all_ok
        parent_lines = 0
        if os.path.exists(store.segment_path):
            with open(store.segment_path, encoding="utf-8") as handle:
                parent_lines = len(handle.readlines())
        assert parent_lines == store.appends
        segments = tmp_path.glob(SynthesisDiskCache.SEGMENT_PATTERN)
        worker_pids = {
            int(path.name.split(".")[1])
            for path in segments
            if str(path) != store.segment_path
        }
        assert 1 <= len(worker_pids) <= 2
        assert os.getpid() not in worker_pids

    def test_optimize_results_identical_with_cache(self, tmp_path, two_sboxes, monkeypatch):
        parameters = GAParameters(population_size=4, generations=2, seed=3)
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        baseline = optimize_pin_assignment(two_sboxes, parameters=parameters)
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        cold = optimize_pin_assignment(two_sboxes, parameters=parameters)
        warm = optimize_pin_assignment(two_sboxes, parameters=parameters)
        assert cold.best_area == warm.best_area == baseline.best_area
        assert (
            cold.best_assignment.to_genotype()
            == warm.best_assignment.to_genotype()
            == baseline.best_assignment.to_genotype()
        )
        assert warm.cache_stats["disk_hits"] > 0
        assert warm.cache_stats["evaluations"] == 0
