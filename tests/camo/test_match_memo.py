"""``best_match`` answers exactly as a fresh library's first ``match`` does.

The technology mapper asks the same required function sets many times per
design, so ``best_match`` may remember its answers.  Whatever it remembers
must equal a fresh library's ``match(required, max_candidates=1)[0]``: the
same cell, leaf-to-pin assignment and realisations, and ``None`` when no
cell matches.  The required sets are drawn from the cells' plausible
families with some pins tied to constants, so most of them match, and a
mix of two cells' families sometimes does not.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camo import CamouflageLibrary, default_camouflage_library
from repro.logic import TruthTable

CELLS = default_camouflage_library().cells()


def _project(function: TruthTable, pin_of_leaf, tied) -> TruthTable:
    """``function`` over the leaves, with the pins no leaf drives tied to constants."""

    def evaluate(*leaf_values):
        pins = list(tied)
        for leaf, value in enumerate(leaf_values):
            pins[pin_of_leaf[leaf]] = value
        return function.evaluate(pins)

    return TruthTable.from_function(len(pin_of_leaf), evaluate)


@st.composite
def required_sets(draw, library_cells=CELLS):
    cells = draw(st.lists(st.sampled_from(library_cells), min_size=1, max_size=2))
    num_leaves = draw(st.integers(min_value=0, max_value=min(c.num_inputs for c in cells)))
    required = []
    for cell in cells:
        pins = cell.num_inputs
        pin_of_leaf = draw(st.permutations(list(range(pins))))[:num_leaves]
        tied = draw(st.lists(st.integers(0, 1), min_size=pins, max_size=pins))
        family = sorted(cell.plausible, key=lambda table: table.bits)
        for function in draw(st.lists(st.sampled_from(family), min_size=1, max_size=3)):
            required.append(_project(function, pin_of_leaf, tied))
    return required


def _answer(match):
    return None if match is None else (match.cell.name, match.pin_of_leaf, match.realisations)


@pytest.fixture(scope="module")
def memoised():
    """One library queried by every example, so answers are both computed and recalled."""
    return default_camouflage_library()


@given(required=required_sets())
@settings(max_examples=150, deadline=None)
def test_best_match_equals_a_fresh_first_match(memoised, required):
    fresh = default_camouflage_library().match(required, max_candidates=1)
    expected = _answer(fresh[0]) if fresh else None
    equal_copy = [TruthTable(function.num_vars, function.bits) for function in required]
    assert _answer(memoised.best_match(required)) == expected
    assert _answer(memoised.best_match(equal_copy)) == expected


def test_unmatchable_set_returns_none_twice(memoised):
    variables = [TruthTable.variable(var, 4) for var in range(4)]
    parity = variables[0] ^ variables[1] ^ variables[2] ^ variables[3]
    assert default_camouflage_library().match([parity]) == []
    assert memoised.best_match([parity]) is None
    assert memoised.best_match([parity]) is None


def test_libraries_never_share_answers(memoised):
    nand = ~(TruthTable.variable(0, 2) & TruthTable.variable(1, 2))
    assert memoised.best_match([nand]).cell.name == "CAMO_NAND2"
    assert memoised.best_match([nand]).cost == pytest.approx(1.0)
    costly = default_camouflage_library(area_overhead=0.5)
    assert costly.best_match([nand]).cost == pytest.approx(1.5)
    without_nand2 = CamouflageLibrary(
        [cell for cell in memoised.cells() if cell.name != "CAMO_NAND2"]
    )
    assert without_nand2.best_match([nand]).cell.name == "CAMO_NAND3"
