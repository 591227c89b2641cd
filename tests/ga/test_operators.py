"""Unit tests for the permutation genetic operators."""

import random

import pytest

from repro.ga import (
    SegmentedPermutationSpace,
    pmx_crossover,
    shuffle_mutation,
    swap_mutation,
)


def is_permutation(values):
    return sorted(values) == list(range(len(values)))


class TestCrossovers:
    @pytest.mark.parametrize("crossover", [pmx_crossover])
    def test_children_are_permutations(self, crossover):
        rng = random.Random(3)
        for _ in range(50):
            size = rng.randint(2, 10)
            parent_a = list(range(size))
            parent_b = list(range(size))
            rng.shuffle(parent_a)
            rng.shuffle(parent_b)
            child_a, child_b = crossover(parent_a, parent_b, rng)
            assert is_permutation(child_a)
            assert is_permutation(child_b)

    @pytest.mark.parametrize("crossover", [pmx_crossover])
    def test_identical_parents_give_identical_children(self, crossover):
        rng = random.Random(1)
        parent = [3, 1, 0, 2, 4]
        child_a, child_b = crossover(parent, parent, rng)
        assert child_a == parent
        assert child_b == parent

    @pytest.mark.parametrize("crossover", [pmx_crossover])
    def test_length_mismatch_rejected(self, crossover):
        with pytest.raises(ValueError):
            crossover([0, 1], [0, 1, 2], random.Random(0))

    def test_single_gene_segments(self):
        rng = random.Random(0)
        assert pmx_crossover([0], [0], rng) == ([0], [0])


class TestMutations:
    def test_swap_mutation_preserves_permutation(self):
        rng = random.Random(7)
        for _ in range(30):
            permutation = list(range(8))
            rng.shuffle(permutation)
            mutated = swap_mutation(permutation, rng, swaps=2)
            assert is_permutation(mutated)

    def test_swap_mutation_changes_something(self):
        rng = random.Random(7)
        assert swap_mutation(list(range(6)), rng) != list(range(6))

    def test_shuffle_mutation_preserves_permutation(self):
        rng = random.Random(9)
        for _ in range(30):
            mutated = shuffle_mutation(list(range(7)), rng, probability=1.0)
            assert is_permutation(mutated)

    def test_shuffle_mutation_respects_probability_zero(self):
        rng = random.Random(9)
        assert shuffle_mutation(list(range(7)), rng, probability=0.0) == list(range(7))

    def test_tiny_inputs(self):
        rng = random.Random(0)
        assert swap_mutation([0], rng) == [0]
        assert shuffle_mutation([0], rng) == [0]


class TestSegmentedSpace:
    def test_split_join_roundtrip(self):
        space = SegmentedPermutationSpace([4, 4, 2])
        genotype = [0, 1, 2, 3, 3, 2, 1, 0, 1, 0]
        assert space.join(space.split(genotype)) == genotype

    def test_validate(self):
        space = SegmentedPermutationSpace([3, 2])
        assert space.validate([0, 1, 2, 1, 0])
        assert not space.validate([0, 1, 1, 1, 0])
        assert not space.validate([0, 1, 2, 1])

    def test_random_and_identity(self):
        space = SegmentedPermutationSpace([4, 3])
        rng = random.Random(5)
        for _ in range(20):
            assert space.validate(space.random_genotype(rng))
        assert space.identity_genotype() == [0, 1, 2, 3, 0, 1, 2]

    def test_crossover_and_mutate_preserve_validity(self):
        space = SegmentedPermutationSpace([4, 4, 4, 4])
        rng = random.Random(11)
        parent_a = space.random_genotype(rng)
        parent_b = space.random_genotype(rng)
        child_a, child_b = space.crossover(parent_a, parent_b, rng)
        assert space.validate(child_a)
        assert space.validate(child_b)
        for _ in range(10):
            assert space.validate(space.mutate(parent_a, rng))

    def test_bad_segment_sizes(self):
        with pytest.raises(ValueError):
            SegmentedPermutationSpace([])
        with pytest.raises(ValueError):
            SegmentedPermutationSpace([0, 2])

    def test_split_length_check(self):
        space = SegmentedPermutationSpace([2, 2])
        with pytest.raises(ValueError):
            space.split([0, 1, 0])
