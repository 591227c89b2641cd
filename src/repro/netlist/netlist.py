"""Gate-level netlist container.

A :class:`Netlist` is a combinational, single-output-cell netlist: primary
inputs, primary outputs, and cell instances.  Nets are identified by name.
Constants are modelled with the special nets ``$const0`` and ``$const1``
which every netlist implicitly provides.

The class offers the structural queries the rest of the flow relies on:
topological ordering, fanout counts, transitive fanin cones, total area, and
simple editing (adding instances, renaming nets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .library import CellLibrary, CellType

__all__ = ["Instance", "Netlist", "CONST0_NET", "CONST1_NET"]

CONST0_NET = "$const0"
CONST1_NET = "$const1"


@dataclass
class Instance:
    """A cell instance: one output net driven by a library cell."""

    name: str
    cell: str
    inputs: List[str]
    output: str
    attributes: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"Instance({self.name!r}, cell={self.cell!r}, "
            f"inputs={self.inputs!r}, output={self.output!r})"
        )


class NetlistError(Exception):
    """Raised for structural problems in a netlist."""


class Netlist:
    """A combinational gate-level netlist over a cell library."""

    def __init__(self, name: str, library: CellLibrary):
        self.name = name
        self.library = library
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        self._instances: Dict[str, Instance] = {}
        self._driver: Dict[str, str] = {}  # net name -> instance name
        self._instance_counter = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self.primary_inputs:
            raise NetlistError(f"primary input {net!r} already declared")
        if net in self._driver:
            raise NetlistError(f"net {net!r} is already driven by an instance")
        self.primary_inputs.append(net)
        return net

    def add_output(self, net: str) -> str:
        """Declare a primary output net (it must eventually have a driver)."""
        if net in self.primary_outputs:
            raise NetlistError(f"primary output {net!r} already declared")
        self.primary_outputs.append(net)
        return net

    def new_net(self, prefix: str = "n") -> str:
        """Return a fresh net name not used anywhere in the netlist."""
        while True:
            self._instance_counter += 1
            candidate = f"{prefix}{self._instance_counter}"
            if (
                candidate not in self._driver
                and candidate not in self.primary_inputs
                and candidate not in self.primary_outputs
            ):
                return candidate

    def add_instance(
        self,
        cell: str,
        inputs: Sequence[str],
        output: Optional[str] = None,
        name: Optional[str] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Instance:
        """Add a cell instance and return it.

        When ``output`` is omitted a fresh net name is allocated.
        """
        cell_type = self.library.get(cell)
        if cell_type is None:
            raise NetlistError(f"cell {cell!r} is not in library {self.library.name!r}")
        if len(inputs) != cell_type.num_inputs:
            raise NetlistError(
                f"cell {cell} expects {cell_type.num_inputs} inputs, got {len(inputs)}"
            )
        if output is None:
            output = self.new_net()
        if output in self._driver:
            raise NetlistError(f"net {output!r} already has a driver")
        if output in self.primary_inputs:
            raise NetlistError(f"net {output!r} is a primary input and cannot be driven")
        if name is None:
            name = f"u_{len(self._instances)}_{cell.lower()}"
        if name in self._instances:
            raise NetlistError(f"instance name {name!r} already used")
        instance = Instance(name, cell, list(inputs), output, dict(attributes or {}))
        self._instances[name] = instance
        self._driver[output] = name
        return instance

    def remove_instance(self, name: str) -> None:
        """Remove an instance (its output net becomes undriven)."""
        instance = self._instances.pop(name, None)
        if instance is None:
            raise NetlistError(f"no instance named {name!r}")
        self._driver.pop(instance.output, None)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def instances(self) -> List[Instance]:
        """All instances in insertion order."""
        return list(self._instances.values())

    def instance(self, name: str) -> Instance:
        """Return an instance by name."""
        try:
            return self._instances[name]
        except KeyError as exc:
            raise NetlistError(f"no instance named {name!r}") from exc

    def num_instances(self) -> int:
        """Number of cell instances."""
        return len(self._instances)

    def driver_of(self, net: str) -> Optional[Instance]:
        """Return the instance driving ``net`` (None for PIs and constants)."""
        name = self._driver.get(net)
        return self._instances.get(name) if name is not None else None

    def nets(self) -> List[str]:
        """Return every net name referenced in the netlist."""
        names = list(self.primary_inputs)
        for instance in self._instances.values():
            names += instance.inputs
            names.append(instance.output)
        names += self.primary_outputs
        # First occurrences, in order.
        return list(dict.fromkeys(names))

    def fanout_counts(self) -> Dict[str, int]:
        """Return the number of sinks of every net (POs count as one sink)."""
        counts: Dict[str, int] = {net: 0 for net in self.nets()}
        for instance in self._instances.values():
            for net in instance.inputs:
                counts[net] = counts.get(net, 0) + 1
        for net in self.primary_outputs:
            counts[net] = counts.get(net, 0) + 1
        return counts

    def topological_order(self) -> List[Instance]:
        """Return instances sorted so every instance follows its drivers.

        Raises :class:`NetlistError` when the netlist has a combinational
        cycle or an instance reads an undriven internal net.
        """
        available: Set[str] = set(self.primary_inputs) | {CONST0_NET, CONST1_NET}
        # Kahn's algorithm over the instance graph: an instance is ready once
        # every one of its input nets is available.
        pending: Dict[str, int] = {}
        waiters: Dict[str, List[str]] = {}
        ready: List[str] = []
        for name, instance in self._instances.items():
            missing = 0
            for net in set(instance.inputs):
                if net not in available:
                    missing += 1
                    waiters.setdefault(net, []).append(name)
            if missing == 0:
                ready.append(name)
            pending[name] = missing
        order: List[Instance] = []
        while ready:
            name = ready.pop()
            instance = self._instances[name]
            order.append(instance)
            produced = instance.output
            if produced in available:
                continue
            available.add(produced)
            for waiter in waiters.get(produced, ()):
                pending[waiter] -= 1
                if pending[waiter] == 0:
                    ready.append(waiter)
        if len(order) != len(self._instances):
            blocked = sorted(name for name, count in pending.items() if count > 0)
            raise NetlistError(
                "combinational cycle or undriven net; blocked instances: "
                + ", ".join(blocked[:5])
            )
        return order

    def transitive_fanin(self, net: str) -> List[Instance]:
        """Return the instances in the cone of ``net`` (topological order)."""
        cone: List[Instance] = []
        visited: Set[str] = set()

        def _visit(current: str) -> None:
            if current in visited:
                return
            visited.add(current)
            driver = self.driver_of(current)
            if driver is None:
                return
            for fanin in driver.inputs:
                _visit(fanin)
            cone.append(driver)

        _visit(net)
        return cone

    def area(self) -> float:
        """Return the total cell area in gate equivalents."""
        return sum(self.library[instance.cell].area for instance in self._instances.values())

    def cell_histogram(self) -> Dict[str, int]:
        """Return a cell-name -> instance-count histogram."""
        histogram: Dict[str, int] = {}
        for instance in self._instances.values():
            histogram[instance.cell] = histogram.get(instance.cell, 0) + 1
        return histogram

    # ------------------------------------------------------------------ #
    # Editing helpers
    # ------------------------------------------------------------------ #
    def rename_net(self, old: str, new: str) -> None:
        """Rename a net everywhere it appears."""
        if old == new:
            return
        if new in self.nets():
            raise NetlistError(f"net {new!r} already exists")
        self.primary_inputs = [new if net == old else net for net in self.primary_inputs]
        self.primary_outputs = [new if net == old else net for net in self.primary_outputs]
        for instance in self._instances.values():
            if old in instance.inputs:
                instance.inputs = [new if net == old else net for net in instance.inputs]
            if instance.output == old:
                instance.output = new
        if old in self._driver:
            self._driver[new] = self._driver.pop(old)

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Return a deep copy of the netlist (library object is shared)."""
        clone = Netlist(name or self.name, self.library)
        clone.primary_inputs = list(self.primary_inputs)
        clone.primary_outputs = list(self.primary_outputs)
        for instance in self._instances.values():
            clone.add_instance(
                instance.cell,
                list(instance.inputs),
                output=instance.output,
                name=instance.name,
                attributes=dict(instance.attributes),
            )
        return clone

    def __repr__(self) -> str:
        return (
            f"Netlist(name={self.name!r}, inputs={len(self.primary_inputs)}, "
            f"outputs={len(self.primary_outputs)}, instances={len(self._instances)}, "
            f"area={self.area():.2f} GE)"
        )
