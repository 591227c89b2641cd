"""The camouflage cell library and function-set matching.

A :class:`CamouflageLibrary` holds the camouflaged variants of the standard
cells and answers the central query of the technology mapper (Alg. 1, line
8): *given a set of required functions over a handful of leaf signals, which
camouflaged cell can implement all of them, and with which leaf-to-pin
assignment?*
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..logic.truthtable import TruthTable
from ..netlist.library import CellLibrary, CellType, standard_cell_library
from .cells import CAMO_PREFIX, CamouflagedCellType, camouflage_cell

__all__ = ["CellMatch", "CamouflageLibrary", "default_camouflage_library"]

#: Cells that are not worth camouflaging (a buffer's cofactors are trivial).
_EXCLUDED_BASE_CELLS = ("BUF",)


@dataclass(frozen=True)
class CellMatch:
    """A successful match of a required function set onto a camouflaged cell.

    ``pin_of_leaf[i]`` is the cell pin index that leaf ``i`` (the i-th
    variable of the required functions) must connect to.  ``realisations``
    maps each required function (as given) to the plausible function of the
    cell — expressed over the cell pins — that implements it.
    """

    cell: CamouflagedCellType
    pin_of_leaf: Tuple[int, ...]
    realisations: Dict[TruthTable, TruthTable]
    cost: float


class CamouflageLibrary:
    """A collection of camouflaged cells with matching queries."""

    def __init__(self, cells: Iterable[CamouflagedCellType], name: str = "camouflage"):
        self.name = name
        self._cells: Dict[str, CamouflagedCellType] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise ValueError(f"duplicate camouflaged cell {cell.name!r}")
            self._cells[cell.name] = cell
        #: The cells in match order, each with its plausible functions as
        #: packed truth-table bits (all over the cell's pins).
        self._match_order: List[Tuple[CamouflagedCellType, FrozenSet[int]]] = [
            (cell, frozenset(table.bits for table in cell.plausible))
            for cell in sorted(self._cells.values(), key=lambda c: (c.area, c.name))
        ]
        #: Every leaf-to-pin injection with its row map, in ``permutations``
        #: order, by ``(num_leaves, num_pins)``; built on first use.
        self._injections: Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], Tuple[int, ...]]]] = {}
        #: ``best_match`` answers by required functions.  The technology
        #: mapper asks the same few sets for every tree of every design.
        self._best_matches: Dict[Tuple[TruthTable, ...], Optional[CellMatch]] = {}

    # -------------------------------------------------------------- #
    # Container protocol
    # -------------------------------------------------------------- #
    def cells(self) -> List[CamouflagedCellType]:
        """All camouflaged cells in insertion order."""
        return list(self._cells.values())

    def __getitem__(self, name: str) -> CamouflagedCellType:
        try:
            return self._cells[name]
        except KeyError as exc:
            raise KeyError(f"no camouflaged cell named {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def max_pins(self) -> int:
        """Largest pin count over all camouflaged cells."""
        return max(cell.num_inputs for cell in self._cells.values())

    def as_cell_library(self, include: Optional[CellLibrary] = None) -> CellLibrary:
        """Return a :class:`CellLibrary` of look-alike cell types.

        When ``include`` is given, its cells are copied in as well (mapped
        netlists may mix camouflaged and ordinary cells).
        """
        cells: List[CellType] = []
        seen = set()
        if include is not None:
            for cell in include.cells():
                cells.append(cell)
                seen.add(cell.name)
        for camo in self._cells.values():
            if camo.name not in seen:
                cells.append(camo.as_cell_type())
        return CellLibrary(f"{self.name}_cells", cells)

    # -------------------------------------------------------------- #
    # Matching
    # -------------------------------------------------------------- #
    def match(
        self,
        required: Sequence[TruthTable],
        max_candidates: int = 0,
    ) -> List[CellMatch]:
        """Find camouflaged cells that can implement every required function.

        The required functions must all share the same (small) number of
        variables — the subtree leaves, in a fixed order.  Matches are
        returned in ``(cell area, cell name)`` order, each with the first
        leaf-to-pin injection (in ``permutations`` order) under which every
        required function is plausible; ``max_candidates`` limits the list
        (0 means unlimited).

        Each unique required function is lifted onto an injection at most
        once per query: cells with the same pin count share the lifted bits.
        """
        if not required:
            raise ValueError("at least one required function is needed")
        num_leaves = required[0].num_vars
        for function in required:
            if function.num_vars != num_leaves:
                raise ValueError("required functions must share the same leaf variables")
        unique_required = list(dict.fromkeys(required))
        required_bits = [function.bits for function in unique_required]

        # lifted[pins][i]: the required functions lifted onto the i-th
        # injection of ``pins`` pins, shared by every cell with that pin count.
        lifted: Dict[int, List[List[int]]] = {}
        matches: List[CellMatch] = []
        for cell, plausible in self._match_order:
            pins = cell.num_inputs
            if pins < num_leaves:
                continue
            shared = lifted.setdefault(pins, [])
            injections = self._injections_of(num_leaves, pins)
            for position, (pin_of_leaf, row_map) in enumerate(injections):
                if position == len(shared):
                    shared.append([_lift(bits, row_map) for bits in required_bits])
                if plausible.issuperset(shared[position]):
                    realisations = {
                        function: TruthTable(pins, bits)
                        for function, bits in zip(unique_required, shared[position])
                    }
                    matches.append(CellMatch(cell, pin_of_leaf, realisations, cell.area))
                    break
            if max_candidates and len(matches) >= max_candidates:
                break
        return matches

    def best_match(self, required: Sequence[TruthTable]) -> Optional[CellMatch]:
        """Return the cheapest matching cell, or None when nothing matches.

        Answers are remembered per library, so callers share the returned
        :class:`CellMatch` and must not modify it.
        """
        key = tuple(required)
        if key not in self._best_matches:
            matches = self.match(key, max_candidates=1)
            self._best_matches[key] = matches[0] if matches else None
        return self._best_matches[key]

    def _injections_of(
        self, num_leaves: int, num_pins: int
    ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        key = (num_leaves, num_pins)
        injections = self._injections.get(key)
        if injections is None:
            injections = self._injections[key] = [
                (pin_of_leaf, _row_map(pin_of_leaf, num_pins))
                for pin_of_leaf in permutations(range(num_pins), num_leaves)
            ]
        return injections


def _row_map(pin_of_leaf: Tuple[int, ...], num_pins: int) -> Tuple[int, ...]:
    """``row_map[r]`` is the mask of the pin rows that read leaf row ``r``.

    Pin row ``p`` reads leaf row ``r`` when bit ``pin_of_leaf[i]`` of ``p``
    equals bit ``i`` of ``r`` for every leaf ``i``.
    """
    row_map = [0] * (1 << len(pin_of_leaf))
    for pin_row in range(1 << num_pins):
        leaf_row = 0
        for leaf, pin in enumerate(pin_of_leaf):
            leaf_row |= ((pin_row >> pin) & 1) << leaf
        row_map[leaf_row] |= 1 << pin_row
    return tuple(row_map)


def _lift(bits: int, row_map: Tuple[int, ...]) -> int:
    """A leaf function's packed bits, expressed over the cell pins."""
    lifted = 0
    for leaf_row, pin_rows in enumerate(row_map):
        if bits >> leaf_row & 1:
            lifted |= pin_rows
    return lifted


def default_camouflage_library(
    base_library: Optional[CellLibrary] = None,
    area_overhead: float = 0.0,
) -> CamouflageLibrary:
    """Build the camouflage library from (by default) the standard cells."""
    base_library = base_library or standard_cell_library()
    cells = [
        camouflage_cell(cell, area_overhead=area_overhead)
        for cell in base_library.cells()
        if cell.name not in _EXCLUDED_BASE_CELLS
    ]
    return CamouflageLibrary(cells)
