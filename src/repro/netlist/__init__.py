"""Gate-level netlist substrate: cells, netlists, I/O, simulation, checks."""

from .blif import BlifError, read_blif, write_blif
from .library import GE_AREAS, CellLibrary, CellType, standard_cell_library
from .netlist import CONST0_NET, CONST1_NET, Instance, Netlist, NetlistError
from .simulate import extract_function, simulate_assignment, simulate_word, simulate_words
from .validate import assert_valid, validate_netlist
from .verilog import sanitize_identifier, write_verilog
from .window import (
    WINDOWING_NAMES,
    Window,
    WindowError,
    extract_windows,
    stitch_windows,
)

__all__ = [
    "Window",
    "WindowError",
    "WINDOWING_NAMES",
    "extract_windows",
    "stitch_windows",
    "CellType",
    "CellLibrary",
    "standard_cell_library",
    "GE_AREAS",
    "Instance",
    "Netlist",
    "NetlistError",
    "CONST0_NET",
    "CONST1_NET",
    "simulate_word",
    "simulate_words",
    "simulate_assignment",
    "extract_function",
    "write_blif",
    "read_blif",
    "BlifError",
    "write_verilog",
    "sanitize_identifier",
    "validate_netlist",
    "assert_valid",
]
