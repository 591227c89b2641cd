"""``match`` on packed bits answers exactly as the ``TruthTable`` loop it replaced.

``CamouflageLibrary.match`` lifts each required function onto a pin
injection once per query, through a row map, and tests plausibility on
packed integers.  The reference below is the loop it replaced, kept
verbatim: ``_match_cell`` composes every required function onto every
injection of every cell (``_lift_to_pins``) and tests ``TruthTable``
membership.  With ``max_candidates=0`` both must list the same cells in the
same order, each with the same leaf-to-pin assignment, realisations and
cost.  The inputs are the memo test's required sets, zero-leaf (constant)
sets, and sets over a library that adds a 5-pin cell, whose 120 injections
at 4 leaves are the most any query walks.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import given, settings

from repro.camo import CamouflageLibrary, camouflage_cell, default_camouflage_library
from repro.camo.cells import CamouflagedCellType
from repro.camo.library import CellMatch
from repro.logic import TruthTable
from repro.netlist.library import CellType

from test_match_memo import CELLS, required_sets


def _match_cell(
    cell: CamouflagedCellType,
    required: List[TruthTable],
    num_leaves: int,
) -> Optional[CellMatch]:
    pins = cell.num_inputs
    plausible = cell.plausible
    for chosen_pins in permutations(range(pins), num_leaves):
        realisations: Dict[TruthTable, TruthTable] = {}
        feasible = True
        for function in required:
            lifted = _lift_to_pins(function, chosen_pins, pins)
            if lifted not in plausible:
                feasible = False
                break
            realisations[function] = lifted
        if feasible:
            return CellMatch(
                cell=cell,
                pin_of_leaf=tuple(chosen_pins),
                realisations=realisations,
                cost=cell.area,
            )
    return None


def _lift_to_pins(
    function: TruthTable, pin_of_leaf: Sequence[int], num_pins: int
) -> TruthTable:
    """Express a leaf-variable function over the cell-pin variable space."""
    substitutions = [
        TruthTable.variable(pin_of_leaf[leaf], num_pins)
        for leaf in range(function.num_vars)
    ]
    if function.num_vars == 0:
        return TruthTable.constant(num_pins, bool(function.bits & 1))
    return function.compose(substitutions)


def reference_match(library: CamouflageLibrary, required: Sequence[TruthTable]) -> List[CellMatch]:
    """Every matching cell, in the order ``match`` promises, by the old loop."""
    num_leaves = required[0].num_vars
    unique_required = list(dict.fromkeys(required))
    matches = []
    for cell in sorted(library.cells(), key=lambda c: (c.area, c.name)):
        if cell.num_inputs < num_leaves:
            continue
        match = _match_cell(cell, unique_required, num_leaves)
        if match is not None:
            matches.append(match)
    return matches


def _answers(matches: List[CellMatch]):
    return [
        (match.cell.name, match.pin_of_leaf, list(match.realisations.items()), match.cost)
        for match in matches
    ]


def _and5() -> CamouflagedCellType:
    variables = [TruthTable.variable(var, 5) for var in range(5)]
    function = variables[0] & variables[1] & variables[2] & variables[3] & variables[4]
    return camouflage_cell(CellType("AND5", tuple("ABCDE"), function, 2.33, "5-input AND"))


LIBRARY = default_camouflage_library()
CELLS_WITH_AND5 = CELLS + [_and5()]
LIBRARY_WITH_AND5 = CamouflageLibrary(CELLS_WITH_AND5)


def _assert_same(library: CamouflageLibrary, required: Sequence[TruthTable]) -> None:
    assert _answers(library.match(required)) == _answers(reference_match(library, required))


@given(required=required_sets())
@settings(max_examples=150, deadline=None)
def test_default_library_equals_reference(required):
    _assert_same(LIBRARY, required)


@given(required=required_sets(CELLS_WITH_AND5))
@settings(max_examples=150, deadline=None)
def test_five_pin_library_equals_reference(required):
    _assert_same(LIBRARY_WITH_AND5, required)


@pytest.mark.parametrize(
    "values", [(0,), (1,), (0, 1), (1, 0), (1, 1, 0)], ids=lambda values: "".join(map(str, values))
)
@pytest.mark.parametrize("library", [LIBRARY, LIBRARY_WITH_AND5], ids=["default", "and5"])
def test_zero_leaf_sets_equal_reference(library, values):
    required = [TruthTable(0, value) for value in values]
    assert len(library.match(required)) == len(library)
    _assert_same(library, required)


def test_five_pin_cell_walks_every_injection_at_four_leaves():
    """A 4-leaf set that no cell implements tries all 120 injections of AND5."""
    variables = [TruthTable.variable(var, 4) for var in range(4)]
    conjunction = variables[0] & variables[1] & variables[2] & variables[3]
    parity = variables[0] ^ variables[1] ^ variables[2] ^ variables[3]
    assert LIBRARY_WITH_AND5.match([conjunction, parity]) == []
    _assert_same(LIBRARY_WITH_AND5, [conjunction, parity])
    matches = LIBRARY_WITH_AND5.match([conjunction])
    assert [(match.cell.name, match.pin_of_leaf) for match in matches] == [
        ("CAMO_AND4", (0, 1, 2, 3)),
        ("CAMO_AND5", (0, 1, 2, 3)),
    ]
    _assert_same(LIBRARY_WITH_AND5, [conjunction])
