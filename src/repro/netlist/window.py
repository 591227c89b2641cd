"""Netlist windowing: bounded-input subcircuit extraction and stitching.

The obfuscation pipeline bottoms out in exact truth tables, which caps it at
S-box-scale functions.  Windowing is the bridge to *wide* netlists (dozens to
hundreds of primary inputs): the netlist is partitioned into **windows** —
connected subcircuits whose boundary-input count is bounded — each window is
small enough for exhaustive packed simulation and the full Phase I–III flow,
and the transformed windows are stitched back into the parent with exact
pin-boundary bookkeeping.

Window extraction is a *levelized*, reconvergence-aware clustering in the
spirit of the cut growth in :mod:`repro.aig.cuts`, lifted to the gate-level
netlist with one extra invariant the cut world does not need: because a
transformed window may structurally connect **every** output to **every**
input (synthesis and camouflage padding densify dependencies even though the
function is preserved), the windows must form a DAG *at window granularity*.
The extractor therefore sweeps the instances in topological order and greedily
absorbs each instance into the currently open window when (a) all its input
nets are already available — primary inputs, constants, outputs of previously
closed windows, or members of the open window — and (b) the window's
*boundary set* stays within ``max_inputs``.  Shared fanins count once (the
reconvergence-aware part), and a window's inputs can only come from earlier
windows, so replacing each window with an arbitrary pin-compatible black box
can never create a combinational cycle.  The partition is total and a pure,
deterministic function of the netlist, the bounds and the partition name:
``hardness`` (min-cut windowing) cuts each window back to the prefix with
the narrowest boundary late in its growth, which gives more, smaller
windows.

:func:`stitch_windows` is the inverse: given one replacement netlist per
window (pin-compatible: replacement primary input ``k`` corresponds to
``window.input_nets[k]``, primary output ``k`` to ``window.output_nets[k]``),
it splices the replacements into a copy of the parent, renaming internal nets
and instances into a collision-free namespace and returning the name maps so
per-window cell configurations can be carried over to the stitched whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .library import CellLibrary
from .netlist import CONST0_NET, CONST1_NET, Instance, Netlist, NetlistError

__all__ = [
    "Window",
    "WindowError",
    "StitchedNetlist",
    "WINDOWING_NAMES",
    "extract_windows",
    "window_subnetlist",
    "window_function",
    "stitch_windows",
]

#: Partition names accepted by :func:`extract_windows` and ``--windowing``.
WINDOWING_NAMES = ("greedy", "hardness")

_CONST_NETS = (CONST0_NET, CONST1_NET)


class WindowError(NetlistError):
    """Raised for infeasible bounds or pin-incompatible replacements."""


@dataclass(frozen=True)
class Window:
    """A bounded-input subcircuit of a parent netlist.

    ``input_nets`` are the boundary nets feeding the window from outside
    (parent primary inputs or nets driven by other windows), in a stable,
    deterministic order; ``output_nets`` are the member-driven nets the rest
    of the design (or a parent primary output) observes.  The orders define
    the pin contract of any replacement netlist.
    """

    index: int
    instance_names: Tuple[str, ...]
    input_nets: Tuple[str, ...]
    output_nets: Tuple[str, ...]

    @property
    def num_inputs(self) -> int:
        """Number of boundary input nets."""
        return len(self.input_nets)

    @property
    def num_outputs(self) -> int:
        """Number of observed output nets."""
        return len(self.output_nets)

    @property
    def num_instances(self) -> int:
        """Number of member instances."""
        return len(self.instance_names)


def _partition(
    netlist: Netlist,
    order: Sequence[Instance],
    max_inputs: int,
    max_instances: int,
    min_cut: bool,
) -> List[List[str]]:
    """Partition the instances into ordered window member lists.

    Each window sweeps the unassigned instances in topological order and
    greedily absorbs an instance when all its fanins are available and the
    boundary stays within ``max_inputs``.  With ``min_cut`` the window is
    then cut back to the latest minimum-boundary prefix in the second half
    of its growth; a prefix of a valid absorb sequence is itself valid, so
    the levelized invariant holds either way.  The next window starts from
    the instances not kept.
    """
    available: Set[str] = set(netlist.primary_inputs) | set(_CONST_NETS)
    remaining: List[Instance] = list(order)
    member_lists: List[List[str]] = []
    while remaining:
        members: List[str] = []
        member_outputs: Set[str] = set()
        boundary: Set[str] = set()
        boundary_sizes: List[int] = []
        for instance in remaining:
            if len(members) >= max_instances:
                break
            inputs = set(instance.inputs)
            if not inputs <= (available | member_outputs):
                # Some fanin is neither closed-window output nor a member:
                # joining now would let this window's (densified)
                # replacement depend on a later window.  Defer it.
                continue
            external = {
                net
                for net in inputs
                if net not in member_outputs and net not in _CONST_NETS
            }
            if len(boundary | external) > max_inputs:
                continue
            members.append(instance.name)
            member_outputs.add(instance.output)
            boundary |= external
            boundary_sizes.append(len(boundary))
        # Progress is guaranteed: the first remaining instance always has
        # all fanins available (its producers precede it in topological
        # order, so an unassigned producer would itself be first).
        if not members:
            raise WindowError(
                "window extraction failed to make progress (inconsistent "
                "netlist topological order)"
            )
        if min_cut:
            keep = (len(members) + 1) // 2
            for position in range(keep, len(members) + 1):
                if boundary_sizes[position - 1] <= boundary_sizes[keep - 1]:
                    keep = position
            members = members[:keep]
        member_lists.append(members)
        available.update(netlist.instance(name).output for name in members)
        kept = set(members)
        remaining = [instance for instance in remaining if instance.name not in kept]
    return member_lists


def _validate_partition(
    netlist: Netlist,
    order: Sequence[Instance],
    member_lists: Sequence[Sequence[str]],
) -> None:
    """Check the partition invariants: total partition, levelized windows."""
    flattened = [name for members in member_lists for name in members]
    if sorted(flattened) != sorted(instance.name for instance in order):
        raise WindowError(
            "window partition is not total (instances missing or duplicated)"
        )
    available: Set[str] = set(netlist.primary_inputs) | set(_CONST_NETS)
    for ordinal, members in enumerate(member_lists):
        outputs = {netlist.instance(name).output for name in members}
        for name in members:
            if not set(netlist.instance(name).inputs) <= (available | outputs):
                raise WindowError(
                    f"window partition violates the levelized invariant: "
                    f"instance {name!r} in window {ordinal} reads a net "
                    f"driven by a later window"
                )
        available |= outputs


def extract_windows(
    netlist: Netlist,
    max_inputs: int = 8,
    max_instances: int = 48,
    strategy: Optional[str] = None,
) -> List[Window]:
    """Partition every instance of ``netlist`` into bounded-input windows.

    ``strategy`` is a name from :data:`WINDOWING_NAMES`: ``greedy`` (the
    default, also for ``None``) keeps every window as the absorb loop grew
    it, and ``hardness`` cuts each window back to a minimum-boundary prefix
    (see :func:`_partition`).  Names cross worker-pool boundaries, and a job
    fingerprint records the name its spec was built with.

    Deterministic: the result depends only on the netlist, the bounds and
    the name.  ``max_inputs`` must be at least the widest cell arity in use
    (a single instance must always fit a window of its own).
    The window sequence is levelized — window ``k`` reads only primary
    inputs and outputs of windows ``< k`` — so any pin-compatible
    replacement of every window stitches back without creating a
    combinational cycle, even if the replacement structurally connects all
    of its outputs to all of its inputs.
    """
    name = strategy or "greedy"
    if name not in WINDOWING_NAMES:
        raise WindowError(
            f"unknown windowing strategy {name!r}; expected one of "
            f"{list(WINDOWING_NAMES)}"
        )
    if max_inputs < 1:
        raise WindowError("max_inputs must be at least 1")
    if max_instances < 1:
        raise WindowError("max_instances must be at least 1")
    order = netlist.topological_order()
    for instance in order:
        arity = len(set(instance.inputs) - set(_CONST_NETS))
        if arity > max_inputs:
            raise WindowError(
                f"instance {instance.name!r} has {arity} distinct inputs, more "
                f"than max_inputs={max_inputs}; no window can contain it"
            )

    member_lists = _partition(
        netlist, order, max_inputs, max_instances, min_cut=name == "hardness"
    )
    _validate_partition(netlist, order, member_lists)

    # Second pass: boundary bookkeeping per window, in deterministic order.
    consumed_by: Dict[str, List[str]] = {}
    for instance in order:
        for net in instance.inputs:
            consumed_by.setdefault(net, []).append(instance.name)
    primary_outputs = set(netlist.primary_outputs)

    windows: List[Window] = []
    for ordinal, members in enumerate(member_lists):
        member_set = set(members)
        driven = {netlist.instance(name).output for name in members}
        inputs: List[str] = []
        seen_inputs: Set[str] = set()
        for name in members:
            for net in netlist.instance(name).inputs:
                if net in driven or net in _CONST_NETS or net in seen_inputs:
                    continue
                seen_inputs.add(net)
                inputs.append(net)
        outputs: List[str] = []
        for name in members:
            net = netlist.instance(name).output
            consumers = consumed_by.get(net, [])
            externally_used = any(c not in member_set for c in consumers)
            if net in primary_outputs or externally_used or not consumers:
                outputs.append(net)
        windows.append(
            Window(
                index=len(windows),
                instance_names=tuple(members),
                input_nets=tuple(inputs),
                output_nets=tuple(outputs),
            )
        )
    return windows


def window_subnetlist(
    netlist: Netlist, window: Window, name: Optional[str] = None
) -> Netlist:
    """Build the standalone netlist of one window.

    Primary inputs are ``window.input_nets`` (in order), primary outputs
    ``window.output_nets``; member instances are copied verbatim (names and
    internal nets unchanged), so the subnetlist simulates exactly like the
    window embedded in its parent.
    """
    sub = Netlist(name or f"{netlist.name}_w{window.index}", netlist.library)
    for net in window.input_nets:
        sub.add_input(net)
    for instance_name in window.instance_names:
        instance = netlist.instance(instance_name)
        sub.add_instance(
            instance.cell,
            list(instance.inputs),
            output=instance.output,
            name=instance.name,
            attributes=dict(instance.attributes),
        )
    for net in window.output_nets:
        sub.add_output(net)
    return sub


def window_function(netlist: Netlist, window: Window):
    """Exact function of a window (window-local exhaustive packed batch).

    Input ``k`` of the returned :class:`~repro.logic.boolfunc.BoolFunction`
    is ``window.input_nets[k]`` and output ``k`` is ``window.output_nets[k]``
    — the pin contract replacements must honour.
    """
    from ..sim.engine import NetlistSimulator

    return NetlistSimulator(window_subnetlist(netlist, window)).extract_function()


@dataclass
class StitchedNetlist:
    """A parent netlist with every window replaced, plus the bookkeeping."""

    netlist: Netlist
    windows: Tuple[Window, ...]
    #: Per window: replacement instance name -> stitched instance name.
    instance_maps: Tuple[Dict[str, str], ...] = field(default_factory=tuple)

    def map_cell_functions(
        self, per_window: Sequence[Mapping[str, object]]
    ) -> Dict[str, object]:
        """Lift per-window ``cell_functions`` overrides to stitched names."""
        if len(per_window) != len(self.instance_maps):
            raise WindowError(
                f"{len(per_window)} per-window configurations for "
                f"{len(self.instance_maps)} windows"
            )
        merged: Dict[str, object] = {}
        for name_map, config in zip(self.instance_maps, per_window):
            for local_name, function in config.items():
                try:
                    merged[name_map[local_name]] = function
                except KeyError:
                    raise WindowError(
                        f"configuration names unknown instance {local_name!r}"
                    ) from None
        return merged


def _merged_library(parent: Netlist, replacements: Sequence[Netlist]) -> CellLibrary:
    """Union of the parent's and every replacement's cell library."""
    libraries = [parent.library] + [replacement.library for replacement in replacements]
    cells = []
    seen: Set[str] = set()
    for library in libraries:
        for cell in library.cells():
            if cell.name not in seen:
                seen.add(cell.name)
                cells.append(cell)
    return CellLibrary(f"{parent.library.name}_stitched", cells)


def stitch_windows(
    parent: Netlist,
    windows: Sequence[Window],
    replacements: Sequence[Netlist],
    name: Optional[str] = None,
) -> StitchedNetlist:
    """Replace every window of ``parent`` with its replacement netlist.

    Replacement ``i`` must be pin-compatible with ``windows[i]``: its ``k``-th
    primary input is wired to ``windows[i].input_nets[k]`` and its ``k``-th
    primary output drives ``windows[i].output_nets[k]``.  Internal nets and
    instance names are renamed into a fresh ``w<i>_`` namespace, so
    replacements may reuse names freely.  Instances of the parent that belong
    to no window are copied verbatim.  The result is validated structurally
    (every primary output driven, no combinational cycle).
    """
    if len(windows) != len(replacements):
        raise WindowError(
            f"{len(replacements)} replacements for {len(windows)} windows"
        )
    for window, replacement in zip(windows, replacements):
        if len(replacement.primary_inputs) != window.num_inputs:
            raise WindowError(
                f"window {window.index}: replacement has "
                f"{len(replacement.primary_inputs)} inputs, window needs "
                f"{window.num_inputs}"
            )
        if len(replacement.primary_outputs) != window.num_outputs:
            raise WindowError(
                f"window {window.index}: replacement has "
                f"{len(replacement.primary_outputs)} outputs, window needs "
                f"{window.num_outputs}"
            )

    library = _merged_library(parent, replacements)
    result = Netlist(name or f"{parent.name}_windowed", library)
    for net in parent.primary_inputs:
        result.add_input(net)

    used_nets: Set[str] = set(parent.nets()) | set(_CONST_NETS)
    used_instances: Set[str] = set()

    windowed_instances: Set[str] = set()
    for window in windows:
        windowed_instances.update(window.instance_names)
    for instance in parent.instances:
        if instance.name not in windowed_instances:
            result.add_instance(
                instance.cell,
                list(instance.inputs),
                output=instance.output,
                name=instance.name,
                attributes=dict(instance.attributes),
            )
            used_instances.add(instance.name)

    instance_maps: List[Dict[str, str]] = []
    for window, replacement in zip(windows, replacements):
        net_map: Dict[str, str] = {net: net for net in _CONST_NETS}
        for position, net in enumerate(replacement.primary_inputs):
            net_map[net] = window.input_nets[position]
        for position, net in enumerate(replacement.primary_outputs):
            boundary = window.output_nets[position]
            if net in net_map and net_map[net] != boundary:
                # The replacement aliases one of its inputs (or an earlier
                # output) straight onto this output; a buffer realises the
                # alias in the stitched parent.
                result.add_instance(
                    "BUF", [net_map[net]], output=boundary,
                    name=_fresh_name(used_instances, f"w{window.index}_alias_{position}"),
                )
                continue
            net_map[net] = boundary

        def _mapped(net: str, prefix: str = f"w{window.index}_") -> str:
            mapped = net_map.get(net)
            if mapped is None:
                mapped = _fresh_name(used_nets, prefix + net)
                net_map[net] = mapped
            return mapped

        name_map: Dict[str, str] = {}
        for instance in replacement.topological_order():
            new_name = _fresh_name(
                used_instances, f"w{window.index}_{instance.name}"
            )
            new_inputs = [_mapped(net) for net in instance.inputs]
            new_output = _mapped(instance.output)
            result.add_instance(
                instance.cell,
                new_inputs,
                output=new_output,
                name=new_name,
                attributes=dict(instance.attributes),
            )
            name_map[instance.name] = new_name
        instance_maps.append(name_map)

        for position, net in enumerate(replacement.primary_outputs):
            boundary = window.output_nets[position]
            if result.driver_of(boundary) is None:
                # The replacement output was an undriven alias of an input.
                source = net_map.get(net)
                if source is None or source == boundary:
                    raise WindowError(
                        f"window {window.index}: replacement output {net!r} "
                        f"is undriven"
                    )
                result.add_instance(
                    "BUF", [source], output=boundary,
                    name=_fresh_name(
                        used_instances, f"w{window.index}_feed_{position}"
                    ),
                )

    for net in parent.primary_outputs:
        result.add_output(net)

    # Structural validation: raises on cycles or undriven internal nets.
    result.topological_order()
    for net in parent.primary_outputs:
        if result.driver_of(net) is None and net not in result.primary_inputs:
            raise WindowError(f"stitched netlist leaves output {net!r} undriven")
    return StitchedNetlist(
        netlist=result,
        windows=tuple(windows),
        instance_maps=tuple(instance_maps),
    )


def _fresh_name(used: Set[str], candidate: str) -> str:
    """Reserve a name not yet in ``used`` (suffix-probing from the candidate)."""
    name = candidate
    suffix = 1
    while name in used:
        suffix += 1
        name = f"{candidate}_{suffix}"
    used.add(name)
    return name
