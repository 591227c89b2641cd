"""Reporting helpers: the area comparisons of Table I and SAT solver work.

The paper compares, for every merged-S-box configuration, four areas — the
average and best of a batch of random pin assignments, the GA result, and
the GA result after camouflage technology mapping — plus the relative
improvement of GA+TM over the best random assignment.  :class:`AreaRow`
holds one such row and :func:`format_table` renders a list of rows the way
Table I is laid out.

:class:`SolverStatsRow` / :func:`format_solver_stats` render the cumulative
statistics of the incremental SAT solvers that power the adversary stack
(conflicts / decisions / propagations per workload), which the attack
benchmarks and the CLI surface alongside the hardness numbers.

:class:`CacheStatsRow` / :func:`format_cache_stats` do the same for the
synthesis-side fitness caches of Phase II (genotype-level hits, canonical
signature hits, actual synthesis runs, worker count), so the experiment
harnesses can report how much synthesis work batching and memoisation
avoided — the synthesis-side counterpart of the solver-work table.

Both stats rows are thin views over :class:`repro.telemetry.RunTelemetry` —
the unified counter record every layer now emits: ``from_stats`` first
absorbs the legacy dict into a telemetry record and then reads the row out
of it, and ``from_telemetry`` builds a row straight from a record (the path
campaign payloads and ``BENCH_*.json`` artifacts use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

from ..telemetry import RunTelemetry

__all__ = [
    "AreaRow",
    "improvement_percent",
    "format_table",
    "SolverStatsRow",
    "format_solver_stats",
    "CacheStatsRow",
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


@dataclass
class SolverStatsRow:
    """Cumulative incremental-solver statistics for one workload."""

    label: str
    solve_calls: int
    conflicts: int
    decisions: int
    propagations: int
    learned_clauses: int = 0

    @classmethod
    def from_telemetry(cls, telemetry: RunTelemetry, label: str = "") -> "SolverStatsRow":
        """View the ``solver`` scope of a telemetry record as a row."""
        return cls(
            label=label or telemetry.label,
            solve_calls=int(telemetry.get("solver", "solve_calls")),
            conflicts=int(telemetry.get("solver", "conflicts")),
            decisions=int(telemetry.get("solver", "decisions")),
            propagations=int(telemetry.get("solver", "propagations")),
            learned_clauses=int(telemetry.get("solver", "learned_clauses")),
        )

    @classmethod
    def from_stats(cls, label: str, stats: Mapping[str, int]) -> "SolverStatsRow":
        """Build a row from :meth:`repro.sat.solver.SatSolver.stats` output."""
        return cls.from_telemetry(
            RunTelemetry.from_solver_stats(stats, label=label)
        )

    def as_dict(self) -> dict:
        """Return the row as a plain dictionary (for JSON dumps)."""
        return {
            "label": self.label,
            "solve_calls": self.solve_calls,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "learned_clauses": self.learned_clauses,
        }


def format_solver_stats(
    rows: Iterable[SolverStatsRow], title: Optional[str] = None
) -> str:
    """Render solver-work rows as a small aligned table."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'Workload':<24}{'Calls':>7}{'Conflicts':>11}{'Decisions':>11}"
        f"{'Props':>10}{'Learned':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row.label:<24}{row.solve_calls:>7}{row.conflicts:>11}"
            f"{row.decisions:>11}{row.propagations:>10}{row.learned_clauses:>9}"
        )
    return "\n".join(lines)


@dataclass
class CacheStatsRow:
    """Fitness-cache counters for one Phase II workload.

    ``evaluations`` is the number of actual synthesis runs; ``genotype_hits``
    and ``signature_hits`` count evaluations served by the genotype cache and
    the canonical-signature cache respectively (see
    :meth:`repro.ga.pinopt.PinAssignmentProblem.cache_stats`).  When the run
    used worker processes, the counters reflect the parent process only.
    """

    label: str
    evaluations: int
    genotype_hits: int = 0
    signature_hits: int = 0
    jobs: int = 1

    @property
    def requests(self) -> int:
        """Total fitness requests the counters account for."""
        return self.evaluations + self.genotype_hits + self.signature_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of fitness requests served without synthesis."""
        requests = self.requests
        if requests == 0:
            return 0.0
        return (self.genotype_hits + self.signature_hits) / requests

    @classmethod
    def from_telemetry(
        cls, telemetry: RunTelemetry, label: str = "", jobs: int = 1
    ) -> "CacheStatsRow":
        """View the ``cache`` scope of a telemetry record as a row."""
        return cls(
            label=label or telemetry.label,
            evaluations=int(telemetry.get("cache", "evaluations")),
            genotype_hits=int(telemetry.get("cache", "genotype_hits")),
            signature_hits=int(telemetry.get("cache", "signature_hits")),
            jobs=jobs,
        )

    @classmethod
    def from_stats(
        cls, label: str, stats: Mapping[str, int], jobs: int = 1
    ) -> "CacheStatsRow":
        """Build a row from :meth:`PinAssignmentProblem.cache_stats` output."""
        return cls.from_telemetry(
            RunTelemetry.from_cache_stats(stats, label=label), jobs=jobs
        )

    def as_dict(self) -> dict:
        """Return the row as a plain dictionary (for JSON dumps)."""
        return {
            "label": self.label,
            "evaluations": self.evaluations,
            "genotype_hits": self.genotype_hits,
            "signature_hits": self.signature_hits,
            "hit_rate": self.hit_rate,
            "jobs": self.jobs,
        }


def format_cache_stats(
    rows: Iterable[CacheStatsRow], title: Optional[str] = None
) -> str:
    """Render fitness-cache rows as a small aligned table."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'Workload':<24}{'Synth':>7}{'GenoHits':>10}{'SigHits':>9}"
        f"{'HitRate':>9}{'Jobs':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row.label:<24}{row.evaluations:>7}{row.genotype_hits:>10}"
            f"{row.signature_hits:>9}{100 * row.hit_rate:>8.1f}%{row.jobs:>6}"
        )
    return "\n".join(lines)
