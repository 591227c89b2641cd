"""Reproduction of Figure 4: random pin assignments vs the genetic algorithm.

The workload is the merged circuit of 8 PRESENT-style S-boxes.

* Fig. 4a shows the distribution (histogram) of synthesised areas over a
  batch of random pin assignments.
* Fig. 4b shows the GA's best-so-far area per generation, with the average
  and best of the random batch drawn as horizontal reference lines; the GA
  curve dropping below the best-random line is the figure's point.

The harness returns the underlying series so the benchmark can print the
same rows the figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..ga.pinopt import optimize_pin_assignment
from ..ga.random_search import RandomSearchResult, random_pin_search
from ..parallel import resolve_jobs
from .workloads import PRESENT_FAMILY, ExperimentProfile, get_profile, workload_functions

__all__ = ["Figure4aData", "Figure4bData", "run_figure4a", "run_figure4b"]


@dataclass
class Figure4aData:
    """The histogram data behind Fig. 4a."""

    areas: List[float]
    histogram: List[Tuple[float, int]]
    average: float
    best: float
    worst: float

    def to_text(self) -> str:
        """Render the histogram as rows of ``bin_start count``."""
        lines = ["Fig. 4a: area distribution of random pin assignments"]
        lines.append(f"{'area bin (GE)':>14} {'count':>6}")
        for bin_start, count in self.histogram:
            lines.append(f"{bin_start:>14.0f} {count:>6}")
        lines.append(f"avg={self.average:.1f} best={self.best:.1f} worst={self.worst:.1f}")
        return "\n".join(lines)


@dataclass
class Figure4bData:
    """The convergence data behind Fig. 4b."""

    generations: List[int]
    best_so_far: List[float]
    generation_best: List[float]
    generation_average: List[float]
    random_average: float
    random_best: float
    ga_evaluations: int
    random_evaluations: int

    @property
    def ga_beats_best_random(self) -> bool:
        """True when the GA's final best is at or below the best random area."""
        return self.best_so_far[-1] <= self.random_best

    def crossover_generation(self) -> Optional[int]:
        """First generation whose best-so-far is at or below the best random area."""
        for generation, area in zip(self.generations, self.best_so_far):
            if area <= self.random_best:
                return generation
        return None

    def to_text(self) -> str:
        """Render the series the figure plots."""
        lines = ["Fig. 4b: GA convergence vs random baseline"]
        lines.append(
            f"random: avg={self.random_average:.1f} GE, best={self.random_best:.1f} GE "
            f"({self.random_evaluations} samples)"
        )
        lines.append(f"{'gen':>5} {'best-so-far':>12} {'gen best':>10} {'gen avg':>10}")
        for index, generation in enumerate(self.generations):
            lines.append(
                f"{generation:>5} {self.best_so_far[index]:>12.1f} "
                f"{self.generation_best[index]:>10.1f} {self.generation_average[index]:>10.1f}"
            )
        crossover = self.crossover_generation()
        lines.append(
            "GA surpasses best random at generation "
            + (str(crossover) if crossover is not None else "— (not within budget)")
        )
        return "\n".join(lines)


def _figure4_functions(profile: ExperimentProfile):
    return workload_functions(PRESENT_FAMILY, profile.figure4_sbox_count)


def compute_figure4a(
    profile: Optional[ExperimentProfile] = None,
    num_samples: Optional[int] = None,
    seed: int = 11,
    bin_width: float = 5.0,
    jobs: Optional[int] = None,
) -> Figure4aData:
    """Evaluate random pin assignments for the Fig. 4a histogram.

    This is the computational core the campaign runner's ``figure4a`` job
    kind executes; :func:`run_figure4a` routes through the runner.

    ``jobs`` (default: ``REPRO_JOBS``, else serial) parallelises the
    synthesis of the random batch; the histogram is identical either way.
    """
    profile = profile or get_profile()
    jobs = resolve_jobs(jobs)
    functions = _figure4_functions(profile)
    if num_samples is None:
        num_samples = profile.random_samples or (
            profile.ga_population * (profile.ga_generations + 1)
        )
    result = random_pin_search(
        functions,
        num_samples=num_samples,
        seed=seed,
        effort=profile.fitness_effort,
        jobs=jobs,
    )
    return Figure4aData(
        areas=result.areas,
        histogram=result.histogram(bin_width=bin_width),
        average=result.average_area,
        best=result.best_area,
        worst=result.worst_area,
    )


def compute_figure4b(
    profile: Optional[ExperimentProfile] = None,
    seed: int = 11,
    jobs: Optional[int] = None,
) -> Figure4bData:
    """Run the GA and the equal-budget random baseline for Fig. 4b.

    This is the computational core the campaign runner's ``figure4b`` job
    kind executes; :func:`run_figure4b` routes through the runner.

    ``jobs`` (default: ``REPRO_JOBS``, else serial) parallelises both the GA
    fitness evaluations and the random baseline; the seeded series are
    identical for every ``jobs`` value.
    """
    profile = profile or get_profile()
    jobs = resolve_jobs(jobs)
    functions = _figure4_functions(profile)

    optimization = optimize_pin_assignment(
        functions,
        parameters=profile.ga_parameters(seed=seed),
        effort=profile.fitness_effort,
        final_effort=profile.fitness_effort,
        jobs=jobs,
    )
    history = optimization.ga_result.history

    num_random = profile.random_samples or optimization.evaluations
    random_result = random_pin_search(
        functions,
        num_samples=max(1, num_random),
        seed=seed + 1000,
        effort=profile.fitness_effort,
        jobs=jobs,
    )

    return Figure4bData(
        generations=[stats.generation for stats in history],
        best_so_far=[stats.best_so_far for stats in history],
        generation_best=[stats.best for stats in history],
        generation_average=[stats.average for stats in history],
        random_average=random_result.average_area,
        random_best=random_result.best_area,
        ga_evaluations=optimization.evaluations,
        random_evaluations=random_result.evaluations,
    )


def _run_single_figure_job(kind: str, params: dict, jobs: Optional[int]):
    """Run one figure job through the campaign runner and unwrap the value."""
    from ..scenarios.campaign import CampaignJob, CampaignRunner, CampaignSpec

    spec = CampaignSpec(name=kind, jobs=[CampaignJob(kind, kind, params)])
    outcome = CampaignRunner(spec, jobs=resolve_jobs(jobs)).run(fail_fast=True)
    result = outcome.results[0]
    if not result.ok:
        # Re-raise the original exception so failure types are unchanged
        # from the pre-runner implementations.
        if result.exception is not None:
            raise result.exception
        raise RuntimeError(f"{kind} job failed: {result.error}")
    return result.value


def run_figure4a(
    profile: Optional[ExperimentProfile] = None,
    num_samples: Optional[int] = None,
    seed: int = 11,
    bin_width: float = 5.0,
    jobs: Optional[int] = None,
) -> Figure4aData:
    """Fig. 4a through the campaign runner (see :func:`compute_figure4a`)."""
    profile = profile or get_profile()
    from ..scenarios.campaign import _profile_to_dict

    params = {
        "profile": _profile_to_dict(profile),
        "seed": seed,
        "num_samples": num_samples,
        "bin_width": bin_width,
    }
    return _run_single_figure_job("figure4a", params, jobs)


def run_figure4b(
    profile: Optional[ExperimentProfile] = None,
    seed: int = 11,
    jobs: Optional[int] = None,
) -> Figure4bData:
    """Fig. 4b through the campaign runner (see :func:`compute_figure4b`)."""
    profile = profile or get_profile()
    from ..scenarios.campaign import _profile_to_dict

    params = {"profile": _profile_to_dict(profile), "seed": seed}
    return _run_single_figure_job("figure4b", params, jobs)
