"""End-to-end obfuscation flow and reporting."""

from .obfuscate import (
    ObfuscationResult,
    obfuscate,
    obfuscate_target,
    obfuscate_with_assignment,
)
from .report import (
    AreaRow,
    format_solver_stats,
    format_table,
    improvement_percent,
)
from .target import (
    FunctionTarget,
    NetlistTarget,
    ObfuscationTarget,
    WindowedObfuscationResult,
    obfuscate_netlist,
)

__all__ = [
    "ObfuscationResult",
    "obfuscate",
    "obfuscate_target",
    "obfuscate_with_assignment",
    "ObfuscationTarget",
    "FunctionTarget",
    "NetlistTarget",
    "WindowedObfuscationResult",
    "obfuscate_netlist",
    "AreaRow",
    "format_table",
    "improvement_percent",
    "format_solver_stats",
]
