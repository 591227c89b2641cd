"""Designer-side validation: every viable function must remain realisable.

This is the reproduction of the paper's ModelSim check ("we verify that the
resulting circuits can implement each of the viable functions when
appropriate gate functions are supplied"): for every select word the
technology mapper's per-instance configurations are applied to the
camouflaged netlist and the resulting function is compared — exhaustively —
against the corresponding viable function under the chosen pin assignment.

The exhaustive comparison runs on the packed word-parallel engine: the
whole select space is swept in **one** simulation pass over the combined
(data inputs × select word) pattern space
(:meth:`~repro.techmap.mapper.CamouflagedMapping.realised_lookup_tables`),
instead of re-simulating the netlist once per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..merge.merged import MergedDesign
from ..techmap.mapper import CamouflagedMapping

__all__ = ["PlausibilityReport", "verify_viable_functions"]


@dataclass
class PlausibilityReport:
    """Result of checking every viable function against the mapped circuit."""

    total: int
    realised: List[int] = field(default_factory=list)
    failed: List[int] = field(default_factory=list)
    details: Dict[int, str] = field(default_factory=dict)

    @property
    def all_realisable(self) -> bool:
        """True when every viable function can be configured."""
        return not self.failed and len(self.realised) == self.total

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "OK" if self.all_realisable else "FAILED"
        return (
            f"{status}: {len(self.realised)}/{self.total} viable functions realisable "
            f"by the camouflaged circuit"
        )


def verify_viable_functions(
    mapping: CamouflagedMapping, design: MergedDesign
) -> PlausibilityReport:
    """Check that the camouflaged circuit can realise every viable function.

    Compares exhaustively simulated truth tables, all select configurations
    swept packed in one pass.
    """
    report = PlausibilityReport(total=len(design.viable_functions))
    realised_tables = mapping.realised_lookup_tables()
    for select_value in range(len(design.viable_functions)):
        expected = design.function_for_select(select_value).lookup_table()
        if realised_tables[select_value] == expected:
            report.realised.append(select_value)
        else:
            report.failed.append(select_value)
            report.details[select_value] = "truth tables differ"
    return report
