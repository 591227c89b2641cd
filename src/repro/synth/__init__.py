"""Synthesis engine: optimisation scripts, technology mapping, area reports."""

from .area import AreaReport, area_in_ge, area_report
from .mapper import MappingError, map_to_cells
from .script import (
    SynthesisEffort,
    SynthesisResult,
    optimize_aig,
    reset_synthesis_telemetry,
    synthesis_telemetry,
    synthesize,
)

__all__ = [
    "SynthesisEffort",
    "SynthesisResult",
    "optimize_aig",
    "synthesize",
    "synthesis_telemetry",
    "reset_synthesis_telemetry",
    "map_to_cells",
    "MappingError",
    "AreaReport",
    "area_in_ge",
    "area_report",
]
