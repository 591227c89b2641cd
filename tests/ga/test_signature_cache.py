"""Canonical-signature synthesis cache: pin-assignment symmetries that merge
to the same circuit must never re-synthesize, and a cached area must equal a
fresh synthesis of the permuted genotype."""

from __future__ import annotations

import pytest

from repro.ga.pinopt import PinAssignmentProblem
from repro.logic.boolfunc import BoolFunction
from repro.logic.truthtable import TruthTable


def _symmetric_pair():
    """Function 1 (OR) is input-symmetric, so swapping its input pins yields
    the same merged circuit under a different genotype."""
    f_and = BoolFunction([TruthTable(2, 0b1000)], name="and2")
    f_or = BoolFunction([TruthTable(2, 0b1110)], name="or2")
    return [f_and, f_or]


@pytest.fixture
def problem():
    return PinAssignmentProblem(_symmetric_pair(), effort="fast")


# Genotype layout: input perms of f0 and f1, then output perms of f0 and f1.
IDENTITY = [0, 1, 0, 1, 0, 0]
SWAPPED_F1_INPUTS = [0, 1, 1, 0, 0, 0]


class TestCanonicalSignature:
    def test_symmetric_permutation_shares_signature(self, problem):
        assert problem.canonical_signature(IDENTITY) == problem.canonical_signature(
            SWAPPED_F1_INPUTS
        )

    def test_asymmetric_function_changes_signature(self, problem):
        # Swapping the input pins of an asymmetric function (implication)
        # yields a genuinely different merged circuit, so the signatures
        # must differ.
        f_impl = BoolFunction([TruthTable(2, 0b1011)], name="impl")  # a <= b
        f_or = BoolFunction([TruthTable(2, 0b1110)], name="or2")
        asymmetric = PinAssignmentProblem([f_or, f_impl], effort="fast")
        assert asymmetric.canonical_signature(
            IDENTITY
        ) != asymmetric.canonical_signature(SWAPPED_F1_INPUTS)

    def test_equivalent_genotype_never_resynthesizes(self, problem):
        (first,) = problem.evaluate([IDENTITY])
        assert problem.evaluations == 1
        (second,) = problem.evaluate([SWAPPED_F1_INPUTS])
        assert problem.evaluations == 1, "permuted-equivalent genotype re-synthesized"
        assert problem.signature_hits == 1
        assert first == second

    def test_cached_area_matches_fresh_synthesis(self, problem):
        problem.evaluate([IDENTITY])
        (cached,) = problem.evaluate([SWAPPED_F1_INPUTS])
        fresh = problem.synthesize_genotype(SWAPPED_F1_INPUTS).area
        assert cached == fresh

    def test_batch_repeats_synthesise_once(self, problem):
        # Within one batch a repeated signature (the same genotype, or an
        # equivalent one) is a signature hit, as if evaluated one by one.
        areas = problem.evaluate([IDENTITY, IDENTITY, SWAPPED_F1_INPUTS])
        assert areas == [areas[0]] * 3
        stats = problem.cache_stats()
        assert stats["evaluations"] == 1
        assert stats["signature_hits"] == 2
        assert stats["signature_entries"] == 1

    def test_cache_stats_shape(self, problem):
        problem.evaluate([IDENTITY])
        stats = problem.cache_stats()
        assert set(stats) == {"evaluations", "signature_hits", "signature_entries"}
