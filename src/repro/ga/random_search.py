"""Random pin-assignment baseline.

The paper compares the genetic algorithm against an equal budget of random
pin assignments (Table I's "Random avg/best" columns and the horizontal
lines of Fig. 4b, plus the histogram of Fig. 4a).  This module evaluates a
batch of random assignments with the GA's fitness machinery: a
:class:`~repro.ga.pinopt.PinAssignmentProblem` of its own, given the whole
batch in one call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..logic.boolfunc import BoolFunction
from ..merge.pinassign import PinAssignment
from ..netlist.library import CellLibrary
from ..synth.script import SynthesisEffort
from .pinopt import PinAssignmentProblem

__all__ = ["RandomSearchResult", "random_pin_search"]


@dataclass
class RandomSearchResult:
    """Areas of a batch of random pin assignments."""

    areas: List[float]
    best_area: float
    average_area: float
    worst_area: float
    best_assignment: PinAssignment
    evaluations: int

    def histogram(self, bin_width: float = 5.0) -> List[tuple]:
        """Return (bin_start, count) pairs — the data behind Fig. 4a."""
        if not self.areas:
            return []
        start = bin_width * int(min(self.areas) // bin_width)
        bins = {}
        for area in self.areas:
            bucket = start + bin_width * int((area - start) // bin_width)
            bins[bucket] = bins.get(bucket, 0) + 1
        return sorted(bins.items())


def random_pin_search(
    functions: Sequence[BoolFunction],
    num_samples: int,
    seed: int = 7,
    library: Optional[CellLibrary] = None,
    effort: str = SynthesisEffort.FAST,
    jobs: int = 1,
) -> RandomSearchResult:
    """Evaluate ``num_samples`` random pin assignments and summarise the areas.

    The genotype batch is drawn from the seeded RNG up front and evaluated
    in one call; ``jobs > 1`` synthesises its fitness misses over worker
    processes, and the result is identical for every ``jobs`` value.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    problem = PinAssignmentProblem(functions, library=library, effort=effort)
    rng = random.Random(seed)
    genotypes = [problem.random_genotype(rng) for _ in range(num_samples)]
    with problem.synthesis_pool(jobs) as pool:
        areas = problem.evaluate(genotypes, pool)
    best = min(range(num_samples), key=areas.__getitem__)
    return RandomSearchResult(
        areas=areas,
        best_area=areas[best],
        average_area=sum(areas) / len(areas),
        worst_area=max(areas),
        best_assignment=problem.assignment_from_genotype(genotypes[best]),
        evaluations=len(areas),
    )
