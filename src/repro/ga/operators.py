"""Genetic operators for permutation-segment genotypes.

The pin-assignment genotype is a concatenation of independent permutation
segments (one input permutation and one output permutation per viable
function).  Crossover and mutation must keep every segment a valid
permutation, so the operators below work segment-wise:

* partially-matched crossover (PMX) per segment;
* swap and shuffle mutations per segment.

These are the same operator families DEAP provides for permutation encodings.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

__all__ = [
    "SegmentedPermutationSpace",
    "pmx_crossover",
    "swap_mutation",
    "shuffle_mutation",
]


def pmx_crossover(
    parent_a: Sequence[int], parent_b: Sequence[int], rng: random.Random
) -> Tuple[List[int], List[int]]:
    """Partially-matched crossover on two same-length permutations."""
    size = len(parent_a)
    if size != len(parent_b):
        raise ValueError("parents must have the same length")
    if size < 2:
        return list(parent_a), list(parent_b)
    cut1, cut2 = sorted(rng.sample(range(size), 2))
    child_a = _pmx_child(list(parent_a), list(parent_b), cut1, cut2)
    child_b = _pmx_child(list(parent_b), list(parent_a), cut1, cut2)
    return child_a, child_b


def _pmx_child(base: List[int], donor: List[int], cut1: int, cut2: int) -> List[int]:
    child = [-1] * len(base)
    child[cut1:cut2 + 1] = donor[cut1:cut2 + 1]
    segment = set(child[cut1:cut2 + 1])
    for position in range(len(base)):
        if cut1 <= position <= cut2:
            continue
        candidate = base[position]
        while candidate in segment:
            # Follow the PMX mapping chain until we land outside the segment.
            index = donor.index(candidate, cut1, cut2 + 1)
            candidate = base[index]
        child[position] = candidate
    return child


def swap_mutation(
    permutation: Sequence[int], rng: random.Random, swaps: int = 1
) -> List[int]:
    """Swap ``swaps`` random pairs of positions."""
    result = list(permutation)
    size = len(result)
    if size < 2:
        return result
    for _ in range(max(1, swaps)):
        i, j = rng.sample(range(size), 2)
        result[i], result[j] = result[j], result[i]
    return result


def shuffle_mutation(
    permutation: Sequence[int], rng: random.Random, probability: float = 0.3
) -> List[int]:
    """Shuffle a random contiguous slice with the given probability per call."""
    result = list(permutation)
    size = len(result)
    if size < 2 or rng.random() > probability:
        return result
    cut1, cut2 = sorted(rng.sample(range(size), 2))
    middle = result[cut1:cut2 + 1]
    rng.shuffle(middle)
    result[cut1:cut2 + 1] = middle
    return result


class SegmentedPermutationSpace:
    """A genotype made of independent permutation segments.

    ``segment_sizes[k]`` is the length of segment ``k``; the genotype is the
    concatenation of one permutation per segment.  All operators preserve the
    per-segment permutation property.
    """

    def __init__(self, segment_sizes: Sequence[int]):
        if not segment_sizes:
            raise ValueError("at least one segment is required")
        if any(size < 1 for size in segment_sizes):
            raise ValueError("segment sizes must be positive")
        self.segment_sizes = list(segment_sizes)
        self.total_length = sum(segment_sizes)

    # -------------------------------------------------------------- #
    # Segment plumbing
    # -------------------------------------------------------------- #
    def split(self, genotype: Sequence[int]) -> List[List[int]]:
        """Split a flat genotype into its segments."""
        if len(genotype) != self.total_length:
            raise ValueError(
                f"genotype length {len(genotype)} does not match space "
                f"({self.total_length})"
            )
        segments = []
        cursor = 0
        for size in self.segment_sizes:
            segments.append(list(genotype[cursor:cursor + size]))
            cursor += size
        return segments

    def join(self, segments: Sequence[Sequence[int]]) -> List[int]:
        """Concatenate segments back into a flat genotype."""
        genotype: List[int] = []
        for segment in segments:
            genotype.extend(segment)
        return genotype

    def validate(self, genotype: Sequence[int]) -> bool:
        """Return True when every segment is a valid permutation."""
        try:
            segments = self.split(genotype)
        except ValueError:
            return False
        return all(
            sorted(segment) == list(range(len(segment))) for segment in segments
        )

    # -------------------------------------------------------------- #
    # Operators over the full genotype
    # -------------------------------------------------------------- #
    def random_genotype(self, rng: random.Random) -> List[int]:
        """Sample a uniformly random genotype."""
        segments = []
        for size in self.segment_sizes:
            segment = list(range(size))
            rng.shuffle(segment)
            segments.append(segment)
        return self.join(segments)

    def identity_genotype(self) -> List[int]:
        """The genotype where every segment is the identity permutation."""
        return self.join([list(range(size)) for size in self.segment_sizes])

    def crossover(
        self,
        parent_a: Sequence[int],
        parent_b: Sequence[int],
        rng: random.Random,
    ) -> Tuple[List[int], List[int]]:
        """Segment-wise PMX crossover of two genotypes."""
        segments_a = self.split(parent_a)
        segments_b = self.split(parent_b)
        children_a = []
        children_b = []
        for segment_a, segment_b in zip(segments_a, segments_b):
            child_a, child_b = pmx_crossover(segment_a, segment_b, rng)
            children_a.append(child_a)
            children_b.append(child_b)
        return self.join(children_a), self.join(children_b)

    def mutate(
        self,
        genotype: Sequence[int],
        rng: random.Random,
        swap_probability: float = 0.5,
        shuffle_probability: float = 0.2,
    ) -> List[int]:
        """Segment-wise mutation of a genotype."""
        segments = self.split(genotype)
        mutated = []
        for segment in segments:
            result = list(segment)
            if rng.random() < swap_probability:
                result = swap_mutation(result, rng)
            result = shuffle_mutation(result, rng, probability=shuffle_probability)
            mutated.append(result)
        return self.join(mutated)
