"""Unit tests for the generic GA engine, using cheap synthetic fitness."""

import random

import pytest

from repro.ga import GAParameters, GeneticAlgorithm
from repro.ga.operators import SegmentedPermutationSpace


def make_sorting_problem(size=8):
    """Fitness = number of out-of-place genes; optimum is the identity."""
    space = SegmentedPermutationSpace([size])

    def sample(rng):
        return space.random_genotype(rng)

    def evaluate(genotypes):
        return [
            float(sum(1 for index, gene in enumerate(genotype) if gene != index))
            for genotype in genotypes
        ]

    def crossover(a, b, rng):
        return space.crossover(a, b, rng)

    def mutate(genotype, rng):
        return space.mutate(genotype, rng)

    return space, sample, evaluate, crossover, mutate


class TestParameters:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"generations": 0},
            {"crossover_probability": 1.5},
            {"mutation_probability": -0.1},
            {"tournament_size": 0},
            {"elite_count": 30},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            GAParameters(**kwargs)


class TestEngine:
    def test_reaches_good_solution_on_sorting_problem(self):
        space, sample, evaluate, crossover, mutate = make_sorting_problem()
        engine = GeneticAlgorithm(
            sample, evaluate, crossover, mutate,
            parameters=GAParameters(population_size=20, generations=30, seed=3),
        )
        result = engine.run()
        assert result.best_fitness <= 2.0
        assert space.validate(result.best_genotype)

    def test_determinism_with_same_seed(self):
        _, sample, evaluate, crossover, mutate = make_sorting_problem()
        params = GAParameters(population_size=10, generations=10, seed=42)
        first = GeneticAlgorithm(sample, evaluate, crossover, mutate, parameters=params).run()
        second = GeneticAlgorithm(sample, evaluate, crossover, mutate, parameters=params).run()
        assert first.best_genotype == second.best_genotype
        assert first.best_fitness == second.best_fitness
        assert [s.best for s in first.history] == [s.best for s in second.history]

    def test_best_so_far_is_monotone(self):
        _, sample, evaluate, crossover, mutate = make_sorting_problem()
        result = GeneticAlgorithm(
            sample, evaluate, crossover, mutate,
            parameters=GAParameters(population_size=8, generations=15, seed=7),
        ).run()
        best_series = [stats.best_so_far for stats in result.history]
        assert all(later <= earlier for earlier, later in zip(best_series, best_series[1:]))
        assert result.best_fitness == best_series[-1]

    def test_history_length_and_generations(self):
        _, sample, evaluate, crossover, mutate = make_sorting_problem()
        result = GeneticAlgorithm(
            sample, evaluate, crossover, mutate,
            parameters=GAParameters(population_size=6, generations=5, seed=1),
        ).run()
        assert result.generations == 6  # generation 0 plus 5 evolved generations
        assert result.history[0].generation == 0
        assert result.history[-1].generation == 5

    def test_fitness_cache_limits_evaluations(self):
        calls = []
        _, sample, _, crossover, mutate = make_sorting_problem(4)

        def counting_evaluate(genotypes):
            calls.extend(tuple(genotype) for genotype in genotypes)
            return [float(sum(genotype)) for genotype in genotypes]

        engine = GeneticAlgorithm(
            sample, counting_evaluate, crossover, mutate,
            parameters=GAParameters(population_size=10, generations=20, seed=5),
        )
        result = engine.run()
        # Every *distinct* genotype is evaluated exactly once.
        assert len(calls) == len(set(calls))
        assert result.evaluations == len(calls)

    def test_initial_population_seeding(self):
        _, sample, evaluate, crossover, mutate = make_sorting_problem(6)
        identity = list(range(6))
        result = GeneticAlgorithm(
            sample, evaluate, crossover, mutate,
            parameters=GAParameters(population_size=6, generations=2, seed=9),
        ).run(initial_population=[identity])
        # Seeding with the optimum means the GA can never do worse.
        assert result.best_fitness == 0.0
        assert result.best_genotype == identity
