"""Parallel-evaluation determinism: seeded runs must be identical for every
``jobs`` setting, and so must the fitness caches' counters and the synthesis
counters, because workers only synthesise."""

from __future__ import annotations

import pytest

from repro.ga.engine import GAParameters, GeneticAlgorithm
from repro.ga.pinopt import optimize_pin_assignment
from repro.ga.random_search import random_pin_search
from repro.logic.boolfunc import BoolFunction
from repro.logic.truthtable import TruthTable
from repro.synth.script import synthesis_telemetry


def _small_functions():
    """Two tiny same-shape functions (cheap enough to synthesise in tests).

    The second is asymmetric in its three inputs, so its six input
    permutations merge to six distinct circuits and a generation leaves
    several fitness misses for the workers.
    """

    def table(rule):
        rows = [row for row in range(8) if rule(row & 1, row >> 1 & 1, row >> 2 & 1)]
        return TruthTable(3, sum(1 << row for row in rows))

    f_maj = BoolFunction([table(lambda a, b, c: a + b + c >= 2)], name="maj3")
    f_mix = BoolFunction([table(lambda a, b, c: (a and not b) != c)], name="mix3")
    return [f_maj, f_mix]


def _run(jobs: int, seed: int = 9):
    return optimize_pin_assignment(
        _small_functions(),
        parameters=GAParameters(population_size=6, generations=3, seed=seed),
        effort="fast",
        final_effort="fast",
        jobs=jobs,
    )


class TestSeededDeterminismAcrossJobs:
    def test_ga_result_identical_for_serial_and_parallel(self, four_cpus):
        # Force real worker processes even on a single-CPU host so the
        # multiprocess path is what we compare against the serial run.
        serial = _run(jobs=1)
        parallel = _run(jobs=4)
        assert serial.ga_result.best_genotype == parallel.ga_result.best_genotype
        assert serial.ga_result.best_fitness == parallel.ga_result.best_fitness
        assert serial.ga_result.evaluations == parallel.ga_result.evaluations
        assert serial.ga_result.history == parallel.ga_result.history
        assert serial.best_area == parallel.best_area
        assert (
            serial.best_assignment.to_genotype()
            == parallel.best_assignment.to_genotype()
        )

    def test_random_search_identical_for_serial_and_parallel(self):
        functions = _small_functions()
        serial = random_pin_search(functions, num_samples=12, seed=5, jobs=1)
        parallel = random_pin_search(functions, num_samples=12, seed=5, jobs=3)
        assert serial.areas == parallel.areas
        assert serial.best_area == parallel.best_area
        assert (
            serial.best_assignment.to_genotype()
            == parallel.best_assignment.to_genotype()
        )

    def test_cache_stats_not_double_counted_when_clamped(self, monkeypatch):
        # jobs>1 on a single-CPU host: the pool runs every batch inline in
        # the parent, so the parent's counters already hold the truth and
        # the engine's totals must not be added on top of them.
        import repro.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 1)
        result = _run(jobs=4)
        stats = result.cache_stats
        assert (
            stats["evaluations"] + stats["signature_hits"]
            == result.ga_result.evaluations
        )

    def test_cache_stats_count_worker_evaluations(self, monkeypatch, four_cpus):
        # Four CPUs reported, so jobs=4 synthesises on real worker processes.
        # The parent keeps every cache and counter, and adds the workers'
        # synthesis counters to its own: all of it equals the serial run.
        import repro.ga.pinopt as pinopt_module
        synthesize = pinopt_module.synthesize
        in_process = []

        def counted(*args, **kwargs):
            # A worker appends to its own copy of the list, not to ours.
            in_process.append(1)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(pinopt_module, "synthesize", counted)
        results, synth_runs, calls = [], [], []
        for jobs in (1, 4):
            before = synthesis_telemetry().get("synth", "runs")
            in_process.clear()
            results.append(_run(jobs=jobs))
            synth_runs.append(synthesis_telemetry().get("synth", "runs") - before)
            calls.append(len(in_process))
        serial, parallel = results
        assert parallel.ga_result == serial.ga_result
        assert parallel.cache_stats == serial.cache_stats
        assert serial.cache_stats["evaluations"] > 0
        # The fitness syntheses plus the one final synthesis of the winner,
        # wherever they ran; at jobs=4 some of them ran in workers.
        assert synth_runs == [serial.cache_stats["evaluations"] + 1] * 2
        assert calls[0] == synth_runs[0]
        assert calls[1] < synth_runs[1]


class TestEngineBatchEvaluation:
    def test_generation_stats_carry_cache_counters(self):
        result = _run(jobs=1).ga_result
        last = result.history[-1]
        assert last.cache_misses == result.evaluations
        assert last.cache_hits >= 0
        # Cumulative counters must be monotone over generations.
        for earlier, later in zip(result.history, result.history[1:]):
            assert later.cache_hits >= earlier.cache_hits
            assert later.cache_misses >= earlier.cache_misses

    def test_duplicate_genotypes_counted_as_hits(self):
        calls = []

        def evaluate(genotypes):
            calls.extend(tuple(genotype) for genotype in genotypes)
            return [float(sum(genotype)) for genotype in genotypes]

        engine = GeneticAlgorithm(
            sample=lambda rng: [rng.randrange(3) for _ in range(4)],
            evaluate=evaluate,
            crossover=lambda a, b, rng: (list(a), list(b)),
            mutate=lambda g, rng: list(g),
            parameters=GAParameters(population_size=6, generations=2, seed=2),
        )
        result = engine.run()
        # Every distinct genotype is evaluated exactly once...
        assert len(calls) == len(set(calls))
        assert result.evaluations == len(calls)
        # ...and the rest of the fitness requests were cache hits.
        assert engine.cache_hits > 0
