"""Reporting helpers: the area comparisons of Table I and SAT solver work.

The paper compares, for every merged-S-box configuration, four areas — the
average and best of a batch of random pin assignments, the GA result, and
the GA result after camouflage technology mapping — plus the relative
improvement of GA+TM over the best random assignment.  :class:`AreaRow`
holds one such row and :func:`format_table` renders a list of rows the way
Table I is laid out.

:func:`format_solver_stats` renders the cumulative statistics of the
incremental SAT solvers that power the adversary stack (conflicts /
decisions / propagations per workload), which the attack benchmarks and the
CLI surface alongside the hardness numbers.

:func:`format_cache_stats` does the same for the synthesis-side fitness
caches of Phase II (genotype-level hits, canonical signature hits, actual
synthesis runs, worker count), so the experiment harnesses can report how
much synthesis work batching and memoisation avoided — the synthesis-side
counterpart of the solver-work table.

Both take ``(label, stats)`` pairs, where ``stats`` is the layer's own
stats dict, read as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "AreaRow",
    "improvement_percent",
    "format_table",
    "format_solver_stats",
    "format_cache_stats",
]


def improvement_percent(reference: float, improved: float) -> float:
    """Relative improvement of ``improved`` over ``reference`` in percent."""
    if reference <= 0:
        raise ValueError("reference area must be positive")
    return 100.0 * (reference - improved) / reference


@dataclass
class AreaRow:
    """One row of the Table I reproduction."""

    circuit: str
    num_functions: int
    random_avg: float
    random_best: float
    ga_area: float
    ga_tm_area: float

    @property
    def improvement(self) -> float:
        """Improvement (%) of GA+TM over the best random assignment."""
        return improvement_percent(self.random_best, self.ga_tm_area)

    def as_dict(self) -> dict:
        """Return the row as a plain dictionary (for JSON dumps)."""
        return {
            "circuit": self.circuit,
            "num_functions": self.num_functions,
            "random_avg": self.random_avg,
            "random_best": self.random_best,
            "ga": self.ga_area,
            "ga_tm": self.ga_tm_area,
            "improvement_percent": self.improvement,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AreaRow":
        """Rebuild a row from :meth:`as_dict` output (campaign state files)."""
        return cls(
            circuit=data["circuit"],
            num_functions=data["num_functions"],
            random_avg=data["random_avg"],
            random_best=data["random_best"],
            ga_area=data["ga"],
            ga_tm_area=data["ga_tm"],
        )


def format_table(rows: Iterable[AreaRow], title: Optional[str] = None) -> str:
    """Render rows in the layout of Table I."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'Circuit':<10}{'#S-boxes':>9}{'Rand avg':>10}{'Rand best':>11}"
        f"{'GA':>8}{'GA+TM':>8}{'Impr(%)':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row.circuit:<10}{row.num_functions:>9}{row.random_avg:>10.0f}"
            f"{row.random_best:>11.0f}{row.ga_area:>8.0f}{row.ga_tm_area:>8.0f}"
            f"{row.improvement:>9.0f}"
        )
    return "\n".join(lines)


def _counts(stats: Mapping[str, int], *keys: str) -> List[int]:
    """The counters ``keys`` of a stats dict as ints; a missing key reads 0."""
    return [int(stats.get(key, 0)) for key in keys]


def format_solver_stats(
    rows: Iterable[Tuple[str, Mapping[str, int]]], title: Optional[str] = None
) -> str:
    """Render ``(label, stats)`` pairs as a small aligned solver-work table.

    ``stats`` is what :meth:`repro.sat.solver.SatSolver.stats` (or an
    oracle's ``solver_stats()``) returns; missing counters print as 0.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'Workload':<24}{'Calls':>7}{'Conflicts':>11}{'Decisions':>11}"
        f"{'Props':>10}{'Learned':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, stats in rows:
        calls, conflicts, decisions, props, learned = _counts(
            stats, "solve_calls", "conflicts", "decisions", "propagations",
            "learned_clauses",
        )
        lines.append(
            f"{label:<24}{calls:>7}{conflicts:>11}"
            f"{decisions:>11}{props:>10}{learned:>9}"
        )
    return "\n".join(lines)


def format_cache_stats(
    rows: Iterable[Tuple[str, Mapping[str, int]]],
    jobs: int,
    title: Optional[str] = None,
) -> str:
    """Render ``(label, cache_stats)`` pairs as a fitness-cache table.

    ``cache_stats`` is what
    :attr:`repro.ga.pinopt.PinOptimizationResult.cache_stats` holds:
    ``evaluations`` counts actual synthesis runs, ``genotype_hits`` and
    ``signature_hits`` the requests the two cache levels served.  Missing
    counters print as 0, and a row without requests has a 0.0% hit rate.
    ``jobs`` is the worker count printed on every row.  The counters are
    kept by the process that runs the GA and are exact at any ``jobs``:
    workers only synthesise.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'Workload':<24}{'Synth':>7}{'GenoHits':>10}{'SigHits':>9}"
        f"{'HitRate':>9}{'Jobs':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, stats in rows:
        synth, geno, sig = _counts(
            stats, "evaluations", "genotype_hits", "signature_hits"
        )
        requests = synth + geno + sig
        hit_rate = (geno + sig) / requests if requests else 0.0
        lines.append(
            f"{label:<24}{synth:>7}{geno:>10}"
            f"{sig:>9}{100 * hit_rate:>8.1f}%{jobs:>6}"
        )
    return "\n".join(lines)
