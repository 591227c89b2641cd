"""Integration tests for the Table I and Figure 4 experiment harnesses.

These use a deliberately tiny profile so the whole module runs in tens of
seconds while still exercising the real GA + random search + technology
mapping pipeline and checking the *shape* of the paper's results.  Two
Figure 4 cases run the quick profile at seed 11: the random areas must
spread, and the GA must end within 5% of the best random assignment.
"""

import pytest

from repro.evaluation import (
    PRESENT_FAMILY,
    get_profile,
    run_figure4a,
    run_figure4b,
    run_table1,
    run_table1_entry,
    table1_text,
)
from repro.evaluation.workloads import ExperimentProfile


@pytest.fixture(scope="module")
def tiny_profile():
    return ExperimentProfile(
        name="tiny",
        present_counts=(2,),
        des_counts=(),
        ga_population=4,
        ga_generations=2,
        random_samples=0,
        figure4_sbox_count=2,
    )


@pytest.fixture(scope="module")
def tiny_entry(tiny_profile):
    return run_table1_entry(PRESENT_FAMILY, 2, profile=tiny_profile, seed=1)


class TestTable1:
    def test_entry_shape(self, tiny_entry):
        row = tiny_entry.row
        assert row.circuit == PRESENT_FAMILY
        assert row.num_functions == 2
        # Shape of Table I: random best <= random avg, GA <= random best (the
        # GA seeds the identity and caches), and TM reduces the GA circuit.
        assert row.random_best <= row.random_avg
        assert row.ga_area <= row.random_best * 1.05
        assert row.ga_tm_area <= row.ga_area + 1e-9
        assert tiny_entry.verification_ok

    def test_random_budget_matches_ga(self, tiny_entry):
        assert tiny_entry.random_result.evaluations == max(1, tiny_entry.ga_evaluations)

    def test_run_table1_sweep_and_text(self, tiny_profile):
        entries = run_table1(profile=tiny_profile, seed=1)
        assert len(entries) == 1
        text = table1_text(entries, profile_name="tiny")
        assert "Table I" in text
        assert "PRESENT" in text

    def test_explicit_families_argument(self, tiny_profile):
        entries = run_table1(
            profile=tiny_profile, families=[(PRESENT_FAMILY, 2)], seed=2, verify=False
        )
        assert len(entries) == 1

    def test_entry_identical_across_jobs(self, tiny_profile, tiny_entry, four_cpus):
        # Force real worker processes even on a single-CPU host so the
        # multiprocess path is what gets compared against the serial entry.
        parallel = run_table1_entry(
            PRESENT_FAMILY, 2, profile=tiny_profile, seed=1, jobs=2
        )
        assert parallel.row.as_dict() == tiny_entry.row.as_dict()
        assert parallel.ga_evaluations == tiny_entry.ga_evaluations
        assert parallel.random_result.areas == tiny_entry.random_result.areas
        serial_opt = tiny_entry.obfuscation.pin_optimization
        parallel_opt = parallel.obfuscation.pin_optimization
        assert (
            parallel_opt.best_assignment.to_genotype()
            == serial_opt.best_assignment.to_genotype()
        )
        assert parallel_opt.ga_result.history == serial_opt.ga_result.history

    def test_sweep_identical_across_jobs(self, tiny_profile, four_cpus):
        families = [(PRESENT_FAMILY, 2), (PRESENT_FAMILY, 3)]
        serial = run_table1(
            profile=tiny_profile, families=families, seed=3, verify=False, jobs=1
        )
        parallel = run_table1(
            profile=tiny_profile, families=families, seed=3, verify=False, jobs=2
        )
        assert [entry.row.as_dict() for entry in serial] == [
            entry.row.as_dict() for entry in parallel
        ]


class TestFigure4:
    def test_figure4a_histogram(self, tiny_profile):
        data = run_figure4a(profile=tiny_profile, num_samples=6, seed=3)
        assert len(data.areas) == 6
        assert sum(count for _, count in data.histogram) == 6
        assert data.best <= data.average <= data.worst
        assert "Fig. 4a" in data.to_text()

    def test_figure4b_series(self, tiny_profile):
        data = run_figure4b(profile=tiny_profile, seed=3)
        assert data.generations[0] == 0
        assert len(data.generations) == tiny_profile.ga_generations + 1
        assert len(data.best_so_far) == len(data.generations)
        # best-so-far is monotone non-increasing.
        assert all(b <= a for a, b in zip(data.best_so_far, data.best_so_far[1:]))
        assert data.random_best <= data.random_average
        assert data.ga_evaluations > 0
        assert "Fig. 4b" in data.to_text()

    def test_figure4b_ga_competitive_with_random(self, tiny_profile):
        data = run_figure4b(profile=tiny_profile, seed=4)
        # With an equal budget the GA must not lose to random search by much;
        # on these tiny runs it generally wins (the paper's Fig. 4b claim).
        assert data.best_so_far[-1] <= data.random_best * 1.10
        crossover = data.crossover_generation()
        if data.ga_beats_best_random:
            assert crossover is not None

    def test_figure4a_quick_profile_spread(self):
        data = run_figure4a(profile=get_profile("quick"), seed=11)
        assert len(data.areas) >= 2
        assert sum(count for _, count in data.histogram) == len(data.areas)
        assert data.best <= data.average <= data.worst
        # The figure must show an actual spread, or Phase II would be pointless.
        assert data.worst > data.best

    def test_figure4b_quick_profile_ga_reaches_random_best(self):
        profile = get_profile("quick")
        data = run_figure4b(profile=profile, seed=11)
        assert len(data.generations) == profile.ga_generations + 1
        assert all(b <= a for a, b in zip(data.best_so_far, data.best_so_far[1:]))
        assert data.random_best <= data.random_average
        # The paper's Fig. 4b claim on the quick profile's budget.
        assert data.best_so_far[-1] <= data.random_best * 1.05
