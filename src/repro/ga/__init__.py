"""Phase II: genetic-algorithm pin-assignment optimisation and baselines."""

from .engine import GAParameters, GAResult, GenerationStats, GeneticAlgorithm
from .operators import (
    SegmentedPermutationSpace,
    pmx_crossover,
    shuffle_mutation,
    swap_mutation,
)
from .pinopt import PinAssignmentProblem, PinOptimizationResult, optimize_pin_assignment
from .random_search import RandomSearchResult, random_pin_search

__all__ = [
    "GAParameters",
    "GAResult",
    "GenerationStats",
    "GeneticAlgorithm",
    "SegmentedPermutationSpace",
    "pmx_crossover",
    "swap_mutation",
    "shuffle_mutation",
    "PinAssignmentProblem",
    "PinOptimizationResult",
    "optimize_pin_assignment",
    "RandomSearchResult",
    "random_pin_search",
]
