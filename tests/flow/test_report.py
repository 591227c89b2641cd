"""Unit tests for the Table I style reporting helpers."""

import pytest

from repro.flow import (
    AreaRow,
    format_solver_stats,
    format_table,
    improvement_percent,
)
from repro.flow.report import format_cache_stats

#: Fixed stats dicts, shaped like ``SatSolver.stats()`` output; the second
#: lacks ``learned_clauses`` (and a solver's size keys), which print as 0.
SOLVER_STATS = [
    (
        "plausibility oracle",
        {
            "solve_calls": 4,
            "conflicts": 32,
            "decisions": 86,
            "propagations": 639,
            "learned_clauses": 31,
            "num_vars": 55,
        },
    ),
    ("DIP loop", {"solve_calls": 5, "conflicts": 0, "decisions": 12, "propagations": 99}),
]

SOLVER_TABLE = (
    "Workload                  Calls  Conflicts  Decisions     Props  Learned\n"
    "------------------------------------------------------------------------\n"
    "plausibility oracle           4         32         86       639       31\n"
    "DIP loop                      5          0         12        99        0"
)

#: Fixed ``PinAssignmentProblem.cache_stats()``-shaped dicts: one with hits,
#: one zero-request row, and one with every key missing.
CACHE_STATS = [
    (
        "PRESENT x2",
        {"evaluations": 9, "genotype_hits": 3, "signature_hits": 4, "genotype_entries": 12},
    ),
    ("DES x2", {"evaluations": 0, "genotype_hits": 0, "signature_hits": 0}),
    ("empty", {}),
]

CACHE_TABLE = (
    "Workload                  Synth  GenoHits  SigHits  HitRate  Jobs\n"
    "-----------------------------------------------------------------\n"
    "PRESENT x2                    9         3        4    43.8%     2\n"
    "DES x2                        0         0        0     0.0%     2\n"
    "empty                         0         0        0     0.0%     2"
)


class TestImprovement:
    def test_basic(self):
        assert improvement_percent(100.0, 62.0) == pytest.approx(38.0)
        assert improvement_percent(100.0, 100.0) == pytest.approx(0.0)
        assert improvement_percent(100.0, 120.0) == pytest.approx(-20.0)

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            improvement_percent(0.0, 1.0)


class TestAreaRow:
    def test_improvement_property(self):
        row = AreaRow("PRESENT", 8, random_avg=205, random_best=164, ga_area=118, ga_tm_area=101)
        assert row.improvement == pytest.approx(100 * (164 - 101) / 164)

    def test_as_dict(self):
        row = AreaRow("DES", 2, 257, 217, 200, 195)
        data = row.as_dict()
        assert data["circuit"] == "DES"
        assert data["num_functions"] == 2
        assert data["improvement_percent"] == pytest.approx(row.improvement)


class TestFormatTable:
    def test_layout(self):
        rows = [
            AreaRow("PRESENT", 2, 54, 42, 41, 39),
            AreaRow("DES", 8, 923, 805, 473, 416),
        ]
        text = format_table(rows, title="Table I")
        lines = text.splitlines()
        assert lines[0] == "Table I"
        assert "Circuit" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)
        assert "PRESENT" in lines[3]
        assert "DES" in lines[4]
        # Improvement column for the DES row: (805-416)/805 = 48%.
        assert lines[4].rstrip().endswith("48")

    def test_without_title(self):
        text = format_table([AreaRow("PRESENT", 2, 54, 42, 41, 39)])
        assert text.splitlines()[0].startswith("Circuit")


class TestSolverStats:
    def test_from_solver(self):
        from repro.sat import SatSolver

        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        solver.solve()
        text = format_solver_stats([("unit", solver.stats())])
        assert text.splitlines()[-1].split()[:2] == ["unit", "1"]

    def test_layout(self):
        rows = [
            ("oracle", {"solve_calls": 4, "conflicts": 32, "decisions": 86,
                        "propagations": 639, "learned_clauses": 31}),
            ("DIP loop", {"solve_calls": 5, "conflicts": 0, "decisions": 12,
                          "propagations": 99, "learned_clauses": 0}),
        ]
        text = format_solver_stats(rows, title="solver work")
        lines = text.splitlines()
        assert lines[0] == "solver work"
        assert "Workload" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)
        assert lines[3].startswith("oracle")
        assert lines[4].rstrip().endswith("0")

    def test_exact_text(self):
        assert format_solver_stats(SOLVER_STATS) == SOLVER_TABLE
        assert (
            format_solver_stats(SOLVER_STATS, title="incremental solver work:")
            == "incremental solver work:\n" + SOLVER_TABLE
        )


class TestCacheStats:
    def test_exact_text(self):
        assert format_cache_stats(CACHE_STATS, 2) == CACHE_TABLE
        assert (
            format_cache_stats(
                CACHE_STATS, 2, title="fitness-cache work (GA, parent process):"
            )
            == "fitness-cache work (GA, parent process):\n" + CACHE_TABLE
        )
