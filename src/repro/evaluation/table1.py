"""Reproduction of Table I: area comparison for merged S-box circuits.

For every (family, number of merged S-boxes) configuration the harness

1. runs the Phase II genetic algorithm (fitness = synthesised area) and
   applies Phase III camouflage technology mapping to the GA winner's final
   synthesis, validating that every viable function remains realisable,
2. evaluates an equal budget of random pin assignments (the baseline),

and reports the four areas plus the improvement of GA+TM over the best
random assignment — the same columns as the paper's Table I.

``jobs`` controls parallelism: :func:`run_table1_entry` spreads the fitness
synthesis runs of one configuration over worker processes, while
:func:`run_table1` evaluates whole rows (one merged-S-box configuration
each) concurrently.  Every row is seeded independently, so the sweep result
is bit-identical for any ``jobs`` setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..flow.obfuscate import ObfuscationResult, obfuscate
from ..flow.report import AreaRow, format_table
from ..ga.random_search import RandomSearchResult, random_pin_search
from ..parallel import resolve_jobs
from .workloads import (
    DES_FAMILY,
    PRESENT_FAMILY,
    ExperimentProfile,
    get_profile,
    workload_functions,
)

__all__ = ["Table1Entry", "run_table1_entry", "run_table1", "table1_text"]


@dataclass
class Table1Entry:
    """Everything measured for one Table I row."""

    row: AreaRow
    random_result: RandomSearchResult
    obfuscation: ObfuscationResult
    ga_evaluations: int
    verification_ok: bool


def run_table1_entry(
    family: str,
    count: int,
    profile: Optional[ExperimentProfile] = None,
    seed: int = 1,
    verify: bool = True,
    jobs: Optional[int] = None,
) -> Table1Entry:
    """Run one row of Table I (one merged S-box configuration).

    ``jobs`` (default: the ``REPRO_JOBS`` environment variable, else serial)
    parallelises the GA fitness evaluations and the random baseline of this
    single configuration; the result is identical for every ``jobs`` value.
    """
    profile = profile or get_profile()
    jobs = resolve_jobs(jobs)
    functions = workload_functions(family, count)

    obfuscation = obfuscate(
        functions,
        ga_parameters=profile.ga_parameters(seed=seed),
        fitness_effort=profile.fitness_effort,
        final_effort=profile.final_effort,
        verify=verify,
        jobs=jobs,
    )
    optimization = obfuscation.pin_optimization
    ga_area = optimization.best_area

    num_random = profile.random_samples or optimization.evaluations
    random_result = random_pin_search(
        functions,
        num_samples=max(1, num_random),
        seed=seed + 1000,
        effort=profile.fitness_effort,
        jobs=jobs,
    )

    row = AreaRow(
        circuit=family,
        num_functions=count,
        random_avg=random_result.average_area,
        random_best=random_result.best_area,
        ga_area=ga_area,
        ga_tm_area=obfuscation.camouflaged_area,
    )
    return Table1Entry(
        row=row,
        random_result=random_result,
        obfuscation=obfuscation,
        ga_evaluations=optimization.evaluations,
        verification_ok=obfuscation.verification.all_realisable if verify else True,
    )


def run_table1(
    profile: Optional[ExperimentProfile] = None,
    families: Optional[Sequence[Tuple[str, int]]] = None,
    seed: int = 1,
    verify: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> List[Table1Entry]:
    """Run the full Table I sweep for the selected profile.

    Thin wrapper over the campaign runner: the sweep is expressed as one
    ``table1_row`` job per configuration (see
    :meth:`repro.scenarios.campaign.CampaignSpec.table1`) and executed over
    the worker pool.  With ``jobs > 1`` the rows (each an independent,
    seeded experiment) are evaluated concurrently; entries are returned in
    sweep order and are identical to a serial run.
    """
    from ..scenarios.campaign import CampaignRunner, CampaignSpec

    profile = profile or get_profile()
    jobs = resolve_jobs(jobs)
    if families is None:
        families = [(PRESENT_FAMILY, count) for count in profile.present_counts]
        families += [(DES_FAMILY, count) for count in profile.des_counts]
    if progress is not None:
        suffix = f" (queued, jobs={jobs})" if jobs > 1 and len(families) > 1 else ""
        for family, count in families:
            progress(f"Table I: {family} x{count}{suffix}")
    spec = CampaignSpec.table1(profile, families, seed=seed, verify=verify)
    # fail_fast: a failing row aborts the sweep at once (and propagates its
    # own exception type), exactly as the pre-runner loop did.
    outcome = CampaignRunner(spec, jobs=jobs).run(fail_fast=True)
    entries: List[Table1Entry] = []
    for result in outcome.results:
        if not result.ok:
            # Re-raise the original exception so callers see the same type
            # the pre-runner sweep loop raised (`except ValueError` etc.
            # keep working); the runner only swallows it per-job so that a
            # campaign with a state dir can record its siblings.
            if result.exception is not None:
                raise result.exception
            raise RuntimeError(f"Table I job {result.job_id} failed: {result.error}")
        entries.append(result.value)
    return entries


def table1_text(entries: Sequence[Table1Entry], profile_name: str = "") -> str:
    """Render the measured rows in the layout of the paper's Table I."""
    title = "Table I: Area comparison for merged S-box circuits"
    if profile_name:
        title += f" (profile: {profile_name})"
    return format_table([entry.row for entry in entries], title=title)
