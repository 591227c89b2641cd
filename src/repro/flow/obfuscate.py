"""End-to-end obfuscation flow: Phase I + Phase II + Phase III + validation.

:func:`obfuscate` is the top-level API a user of the library calls: give it
the list of viable functions and it returns the camouflaged netlist together
with everything needed to audit the result (the chosen pin assignment, the
synthesised merged netlist, per-phase areas, and the designer-side
plausibility report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..attacks.plausibility import PlausibilityReport, verify_viable_functions
from ..ga.engine import GAParameters
from ..ga.pinopt import PinOptimizationResult, optimize_pin_assignment
from ..logic.boolfunc import BoolFunction
from ..merge.merged import MergedDesign, merge_functions
from ..merge.pinassign import PinAssignment
from ..netlist.library import CellLibrary, standard_cell_library
from ..netlist.netlist import Netlist
from ..camo.library import CamouflageLibrary, default_camouflage_library
from ..synth.script import SynthesisEffort, SynthesisResult, synthesize
from ..techmap.mapper import CamouflagedMapping, camouflage_map

__all__ = [
    "ObfuscationResult",
    "obfuscate",
    "obfuscate_with_assignment",
]


@dataclass
class ObfuscationResult:
    """Everything produced by the three-phase flow."""

    viable_functions: List[BoolFunction]
    assignment: PinAssignment
    merged_design: MergedDesign
    synthesis: SynthesisResult
    mapping: CamouflagedMapping
    verification: PlausibilityReport
    pin_optimization: Optional[PinOptimizationResult] = None

    @property
    def synthesized_area(self) -> float:
        """Area (GE) after Phase I+II synthesis, before camouflage mapping."""
        return self.synthesis.area

    @property
    def camouflaged_area(self) -> float:
        """Area (GE) of the final camouflaged netlist."""
        return self.mapping.area()

    @property
    def netlist(self) -> Netlist:
        """The final camouflaged netlist."""
        return self.mapping.netlist

    def summary(self) -> str:
        """Multi-line human-readable summary of the flow outcome."""
        lines = [
            f"viable functions : {len(self.viable_functions)}",
            f"merged inputs    : {self.merged_design.num_data_inputs} data + "
            f"{self.merged_design.num_selects} select",
            f"synthesised area : {self.synthesized_area:.1f} GE",
            f"camouflaged area : {self.camouflaged_area:.1f} GE "
            f"({self.mapping.num_camouflaged_cells()} camouflaged cells)",
            f"validation       : {self.verification.summary()}",
        ]
        if self.pin_optimization is not None:
            lines.insert(
                2,
                f"GA evaluations   : {self.pin_optimization.evaluations} "
                f"(best fitness {self.pin_optimization.best_area:.1f} GE)",
            )
        return "\n".join(lines)


def obfuscate_with_assignment(
    functions: Sequence[BoolFunction],
    assignment: Optional[PinAssignment] = None,
    library: Optional[CellLibrary] = None,
    camo_library: Optional[CamouflageLibrary] = None,
    effort: str = SynthesisEffort.STANDARD,
    max_cover_depth: int = 2,
    verify: bool = True,
) -> ObfuscationResult:
    """Run Phases I and III with a fixed (already chosen) pin assignment."""
    if not functions:
        raise ValueError("at least one viable function is required")
    library = library or standard_cell_library()
    camo_library = camo_library or default_camouflage_library(library)

    design = merge_functions(functions, assignment)
    synthesis = synthesize(design.function, library=library, effort=effort)
    return _camouflage(functions, design, synthesis, camo_library, max_cover_depth, verify)


def _camouflage(
    functions: Sequence[BoolFunction],
    design: MergedDesign,
    synthesis: SynthesisResult,
    camo_library: CamouflageLibrary,
    max_cover_depth: int,
    verify: bool,
) -> ObfuscationResult:
    """Phase III and validation of a synthesised merged design."""
    select_nets = [f"sel[{k}]" for k in range(design.num_selects)]
    mapping = camouflage_map(
        synthesis.netlist, select_nets, camo_library=camo_library,
        max_depth=max_cover_depth,
    )
    if verify:
        verification = verify_viable_functions(mapping, design)
    else:
        verification = PlausibilityReport(total=len(functions))
    return ObfuscationResult(
        viable_functions=list(functions),
        assignment=design.assignment,
        merged_design=design,
        synthesis=synthesis,
        mapping=mapping,
        verification=verification,
    )


def obfuscate(
    functions: Sequence[BoolFunction],
    ga_parameters: Optional[GAParameters] = None,
    library: Optional[CellLibrary] = None,
    camo_library: Optional[CamouflageLibrary] = None,
    fitness_effort: str = SynthesisEffort.FAST,
    final_effort: str = SynthesisEffort.STANDARD,
    max_cover_depth: int = 2,
    verify: bool = True,
    jobs: int = 1,
) -> ObfuscationResult:
    """Run the full three-phase flow (GA pin optimisation included).

    Phase III maps Phase II's synthesis of the winning assignment, made at
    ``final_effort``.  ``jobs`` parallelises the Phase II fitness
    evaluations across worker processes (1 = serial); seeded results are
    identical for every value.
    """
    if not functions:
        raise ValueError("at least one viable function is required")
    library = library or standard_cell_library()
    camo_library = camo_library or default_camouflage_library(library)

    optimization = optimize_pin_assignment(
        functions,
        parameters=ga_parameters,
        library=library,
        effort=fitness_effort,
        final_effort=final_effort,
        jobs=jobs,
    )
    result = _camouflage(
        functions,
        optimization.merged_design,
        optimization.synthesis,
        camo_library,
        max_cover_depth,
        verify,
    )
    result.pin_optimization = optimization
    return result
