"""Unit tests for Phase II: pin-assignment optimisation and random search."""

import random

import pytest

from repro.ga import (
    GAParameters,
    PinAssignmentProblem,
    optimize_pin_assignment,
    random_pin_search,
)
from repro.merge import merge_functions
from repro.synth import synthesize


class TestPinAssignmentProblem:
    def test_genotype_conversions(self, two_sboxes):
        problem = PinAssignmentProblem(two_sboxes)
        rng = random.Random(1)
        genotype = problem.random_genotype(rng)
        assert problem.space.validate(genotype)
        assignment = problem.assignment_from_genotype(genotype)
        assert assignment.num_functions == 2

    def test_first_function_pinned(self, two_sboxes):
        problem = PinAssignmentProblem(two_sboxes)
        rng = random.Random(2)
        for _ in range(5):
            genotype = problem.random_genotype(rng)
            assignment = problem.assignment_from_genotype(genotype)
            assert assignment.input_perms[0] == tuple(range(4))
            assert assignment.output_perms[0] == tuple(range(4))
            mutated = problem.mutate(genotype, rng)
            assert problem.assignment_from_genotype(mutated).input_perms[0] == tuple(range(4))

    def test_evaluate_matches_direct_synthesis(self, two_sboxes, library):
        problem = PinAssignmentProblem(two_sboxes, library=library, effort="fast")
        genotype = problem.space.identity_genotype()
        (area,) = problem.evaluate([genotype])
        design = merge_functions(two_sboxes)
        direct = synthesize(design.function, library=library, effort="fast").area
        assert area == pytest.approx(direct)

    def test_evaluate_is_cached(self, two_sboxes):
        problem = PinAssignmentProblem(two_sboxes, effort="fast")
        genotype = problem.space.identity_genotype()
        problem.evaluate([genotype])
        problem.evaluate([genotype])
        assert problem.evaluations == 1

    def test_shape_validation(self, two_sboxes, des_pair):
        with pytest.raises(ValueError):
            PinAssignmentProblem([two_sboxes[0], des_pair[0]])
        with pytest.raises(ValueError):
            PinAssignmentProblem([])


class TestOptimizePinAssignment:
    def test_small_run_improves_over_identity(self, two_sboxes):
        result = optimize_pin_assignment(
            two_sboxes,
            parameters=GAParameters(population_size=4, generations=2, seed=1),
            effort="fast",
            final_effort="fast",
        )
        problem = PinAssignmentProblem(two_sboxes, effort="fast")
        (identity_area,) = problem.evaluate([problem.space.identity_genotype()])
        # The GA seeds the identity assignment, so it can never end up worse.
        assert result.best_area <= identity_area + 1e-9
        assert result.evaluations >= 4
        assert len(result.history) == 3

    def test_result_contains_consistent_design(self, two_sboxes):
        result = optimize_pin_assignment(
            two_sboxes,
            parameters=GAParameters(population_size=4, generations=1, seed=2),
            effort="fast",
            final_effort="fast",
        )
        assert result.merged_design.assignment == result.best_assignment
        assert result.synthesis.netlist.num_instances() > 0


class TestRandomSearch:
    def test_statistics_are_consistent(self, two_sboxes):
        result = random_pin_search(two_sboxes, num_samples=6, seed=3, effort="fast")
        assert len(result.areas) == 6
        assert result.best_area == min(result.areas)
        assert result.worst_area == max(result.areas)
        assert result.best_area <= result.average_area <= result.worst_area
        assert result.evaluations == 6

    def test_histogram_covers_all_samples(self, two_sboxes):
        result = random_pin_search(two_sboxes, num_samples=8, seed=4, effort="fast")
        histogram = result.histogram(bin_width=10.0)
        assert sum(count for _, count in histogram) == 8

    def test_invalid_sample_count(self, two_sboxes):
        with pytest.raises(ValueError):
            random_pin_search(two_sboxes, num_samples=0)
