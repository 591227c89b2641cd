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
instead of re-simulating the netlist once per configuration.  A SAT-based
variant using the miter equivalence checker is also provided; with
``prefilter`` enabled it fuzz-tests each configuration before falling back
to the solver (fuzz-before-SAT), which never changes a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..merge.merged import MergedDesign
from ..sat.equivalence import check_netlist_function
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
    mapping: CamouflagedMapping,
    design: MergedDesign,
    use_sat: bool = False,
    prefilter: bool = True,
) -> PlausibilityReport:
    """Check that the camouflaged circuit can realise every viable function.

    ``use_sat=False`` (default) compares exhaustively simulated truth tables
    — all select configurations swept packed; ``use_sat=True``
    runs a miter-based equivalence check instead, which exercises the SAT
    substrate and scales to wider circuits (``prefilter`` adds the
    fuzz-before-SAT fast path there).
    """
    report = PlausibilityReport(total=len(design.viable_functions))
    realised_tables: Optional[List[List[int]]] = None
    if not use_sat:
        realised_tables = mapping.realised_lookup_tables()
    for select_value in range(len(design.viable_functions)):
        expected = design.function_for_select(select_value)
        if use_sat:
            configuration = mapping.configuration_for_select(select_value)
            outcome = check_netlist_function(
                mapping.netlist,
                expected,
                cell_functions=configuration.as_cell_functions(),
                prefilter=prefilter,
            )
            matches = bool(outcome)
            detail = "" if matches else f"counterexample {outcome.counterexample}"
        else:
            matches = realised_tables[select_value] == expected.lookup_table()
            detail = "" if matches else "truth tables differ"
        if matches:
            report.realised.append(select_value)
        else:
            report.failed.append(select_value)
            report.details[select_value] = detail
    return report
