"""BLIF reading and writing.

The paper's flow uses Yosys to bridge RTL into BLIF for ABC.  This module
provides the equivalent interoperability layer for our netlists:

* :func:`write_blif` emits a mapped netlist using ``.gate`` statements (plus
  ``.names`` fallbacks for constants).
* :func:`read_blif` parses a structural BLIF with ``.names`` (sum-of-products
  logic) and/or ``.gate`` statements into a :class:`Netlist`; ``.names``
  blocks are converted into library cells when an exact single-output match
  exists, otherwise they are rejected with a clear error.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.truthtable import TruthTable
from .library import CellLibrary, CellType
from .netlist import CONST0_NET, CONST1_NET, Netlist, NetlistError

__all__ = ["write_blif", "read_blif", "BlifError"]


class BlifError(Exception):
    """Raised for malformed BLIF input or non-representable constructs."""


def write_blif(netlist: Netlist, model_name: Optional[str] = None) -> str:
    """Serialise a mapped netlist to BLIF text."""
    lines: List[str] = []
    lines.append(f".model {model_name or netlist.name}")
    lines.append(".inputs " + " ".join(netlist.primary_inputs))
    lines.append(".outputs " + " ".join(netlist.primary_outputs))
    used_nets = set(netlist.nets())
    if CONST0_NET in used_nets or _netlist_uses(netlist, CONST0_NET):
        lines.append(f".names {CONST0_NET}")
    if _netlist_uses(netlist, CONST1_NET):
        lines.append(f".names {CONST1_NET}")
        lines.append("1")
    for instance in netlist.topological_order():
        cell = netlist.library[instance.cell]
        formals = " ".join(
            f"{pin}={net}" for pin, net in zip(cell.input_names, instance.inputs)
        )
        lines.append(f".gate {cell.name} {formals} Y={instance.output}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def _netlist_uses(netlist: Netlist, net: str) -> bool:
    return any(net in instance.inputs for instance in netlist.instances)


def read_blif(text: str, library: CellLibrary) -> Netlist:
    """Parse BLIF text into a :class:`Netlist` over ``library``."""
    statements = _split_statements(text)
    model_name = "blif_model"
    netlist: Optional[Netlist] = None
    pending_names: Optional[Tuple[List[str], List[str]]] = None  # (signals, cube lines)

    def _ensure() -> Netlist:
        nonlocal netlist
        if netlist is None:
            netlist = Netlist(model_name, library)
        return netlist

    def _flush_names() -> None:
        nonlocal pending_names
        if pending_names is None:
            return
        signals, cubes = pending_names
        _add_names_block(_ensure(), signals, cubes, library)
        pending_names = None

    for tokens, raw_line in statements:
        keyword = tokens[0]
        if keyword.startswith("."):
            _flush_names()
        if keyword == ".model":
            model_name = tokens[1] if len(tokens) > 1 else model_name
            if netlist is not None:
                netlist.name = model_name
        elif keyword == ".inputs":
            target = _ensure()
            for net in tokens[1:]:
                target.add_input(net)
        elif keyword == ".outputs":
            target = _ensure()
            for net in tokens[1:]:
                target.add_output(net)
        elif keyword == ".names":
            pending_names = (tokens[1:], [])
        elif keyword == ".gate":
            _add_gate(_ensure(), tokens[1:], library)
        elif keyword == ".end":
            break
        elif keyword.startswith("."):
            raise BlifError(f"unsupported BLIF construct {keyword!r}")
        else:
            if pending_names is None:
                raise BlifError(f"unexpected line outside .names block: {raw_line!r}")
            pending_names[1].append(raw_line)
    _flush_names()
    if netlist is None:
        raise BlifError("BLIF text contained no model")
    return netlist


def _split_statements(text: str) -> List[Tuple[List[str], str]]:
    """Tokenise BLIF, handling comments and line continuations."""
    statements: List[Tuple[List[str], str]] = []
    pending = ""
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        full = (pending + line).strip()
        pending = ""
        statements.append((full.split(), full))
    if pending.strip():
        statements.append((pending.split(), pending.strip()))
    return statements


def _add_gate(netlist: Netlist, tokens: Sequence[str], library: CellLibrary) -> None:
    if not tokens:
        raise BlifError(".gate statement missing a cell name")
    cell_name = tokens[0]
    cell = library.get(cell_name)
    if cell is None:
        raise BlifError(f".gate references unknown cell {cell_name!r}")
    formal_to_actual: Dict[str, str] = {}
    for binding in tokens[1:]:
        if "=" not in binding:
            raise BlifError(f"malformed pin binding {binding!r}")
        formal, actual = binding.split("=", 1)
        formal_to_actual[formal] = actual
    try:
        inputs = [formal_to_actual[pin] for pin in cell.input_names]
        output = formal_to_actual["Y"]
    except KeyError as exc:
        raise BlifError(f".gate {cell_name} is missing a binding for pin {exc}") from exc
    netlist.add_instance(cell_name, inputs, output=output)


def _add_names_block(
    netlist: Netlist,
    signals: List[str],
    cube_lines: List[str],
    library: CellLibrary,
) -> None:
    if not signals:
        raise BlifError(".names block with no signals")
    *input_nets, output_net = signals
    num_inputs = len(input_nets)

    if num_inputs == 0:
        # Constant definition: "1" means constant one, empty means constant zero.
        is_one = any(line.strip() == "1" for line in cube_lines)
        source = CONST1_NET if is_one else CONST0_NET
        if output_net in (CONST0_NET, CONST1_NET):
            # The reserved constant nets are built in; write_blif still
            # defines each one it reads, and a buffer would loop it onto itself.
            if output_net != source:
                raise BlifError(f"{output_net!r} defined as the opposite constant")
            return
        _emit_buffer(netlist, source, output_net, library)
        return

    table = _names_to_table(cube_lines, num_inputs)
    cell, pin_order = _match_cell(table, num_inputs, library)
    if cell is None:
        raise BlifError(
            f".names block for {output_net!r} does not match any library cell; "
            "only mapped BLIF is supported"
        )
    ordered_inputs = [input_nets[index] for index in pin_order]
    netlist.add_instance(cell.name, ordered_inputs, output=output_net)


def _emit_buffer(netlist: Netlist, source: str, output: str, library: CellLibrary) -> None:
    if "BUF" not in library:
        raise BlifError("library has no BUF cell for constant/alias modelling")
    netlist.add_instance("BUF", [source], output=output)


def _names_to_table(cube_lines: List[str], num_inputs: int) -> TruthTable:
    onset = TruthTable.constant(num_inputs, False)
    for line in cube_lines:
        parts = line.split()
        if len(parts) != 2:
            raise BlifError(f"malformed .names cube line {line!r}")
        pattern, value = parts
        if value != "1":
            raise BlifError("only on-set .names cubes are supported")
        if len(pattern) != num_inputs:
            raise BlifError(f"cube {pattern!r} does not match {num_inputs} inputs")
        cube = TruthTable.constant(num_inputs, True)
        for var, char in enumerate(pattern):
            if char == "1":
                cube = cube & TruthTable.variable(var, num_inputs)
            elif char == "0":
                cube = cube & ~TruthTable.variable(var, num_inputs)
            elif char != "-":
                raise BlifError(f"invalid cube character {char!r}")
        onset = onset | cube
    return onset


def _match_cell(
    table: TruthTable, num_inputs: int, library: CellLibrary
) -> Tuple[Optional[CellType], List[int]]:
    """Find a library cell (and pin permutation) implementing ``table`` exactly."""
    from itertools import permutations

    for cell in library.by_num_inputs(num_inputs):
        for permutation in permutations(range(num_inputs)):
            if cell.function.permute_inputs(list(permutation)) == table:
                # permutation maps cell-pin index -> .names input index; we
                # need, for each cell pin, which .names input connects to it.
                inverse = [0] * num_inputs
                for cell_pin, names_index in enumerate(permutation):
                    inverse[cell_pin] = names_index
                return cell, inverse
    return None, []
