"""End-to-end obfuscation flow and reporting."""

from .obfuscate import (
    ObfuscationResult,
    obfuscate,
    obfuscate_with_assignment,
)
from .report import (
    AreaRow,
    format_solver_stats,
    format_table,
    improvement_percent,
)
from .target import WindowedObfuscationResult, obfuscate_netlist

__all__ = [
    "ObfuscationResult",
    "obfuscate",
    "obfuscate_with_assignment",
    "WindowedObfuscationResult",
    "obfuscate_netlist",
    "AreaRow",
    "format_table",
    "improvement_percent",
    "format_solver_stats",
]
