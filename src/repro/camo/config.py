"""Configurations of camouflaged instances.

A *configuration* fixes, for every camouflaged instance of a netlist, which
of its plausible functions the doping actually implements.  The designer
knows the configuration; the adversary only knows the plausible family per
instance.  Configurations are consumed by
:func:`repro.netlist.simulate.extract_function` via its ``cell_functions``
override, which is how the designer-side validation and the attack analyses
evaluate a camouflaged netlist.

:func:`sweep_configurations` evaluates the *entire* select space in one
packed word-parallel pass (patterns range over data inputs × select words
simultaneously), which is how the designer-side plausibility check verifies
every viable function without re-simulating the netlist per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..logic.truthtable import TruthTable
from ..netlist.netlist import Netlist

__all__ = ["CircuitConfiguration", "sweep_configurations"]


@dataclass
class CircuitConfiguration:
    """A mapping from camouflaged instance names to their configured functions."""

    functions: Dict[str, TruthTable] = field(default_factory=dict)

    def set(self, instance_name: str, function: TruthTable) -> None:
        """Fix the configured function of one instance."""
        self.functions[instance_name] = function

    def get(self, instance_name: str) -> Optional[TruthTable]:
        """Return the configured function of an instance (None if unconstrained)."""
        return self.functions.get(instance_name)

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self) -> Iterator[str]:
        return iter(self.functions)

    def as_cell_functions(self) -> Mapping[str, TruthTable]:
        """Return the mapping consumed by the netlist simulator."""
        return dict(self.functions)

    def validate_against(self, netlist: Netlist) -> None:
        """Check that every configured instance exists and arities match."""
        for name, function in self.functions.items():
            instance = netlist.instance(name)
            cell = netlist.library[instance.cell]
            if cell.num_inputs != function.num_vars:
                raise ValueError(
                    f"configuration of {name!r} has {function.num_vars} variables "
                    f"but cell {cell.name} has {cell.num_inputs} pins"
                )

    def merged_with(self, other: "CircuitConfiguration") -> "CircuitConfiguration":
        """Return a configuration combining both (``other`` wins on conflict)."""
        combined = dict(self.functions)
        combined.update(other.functions)
        return CircuitConfiguration(combined)


def sweep_configurations(
    netlist: Netlist,
    select_order: Sequence[str],
    instance_selects: Mapping[str, Sequence[str]],
    instance_configs: Mapping[str, Mapping[Tuple[int, ...], TruthTable]],
) -> List[List[int]]:
    """Realised lookup tables of every select configuration, packed.

    Entry ``s`` of the result is the word-level lookup table the netlist
    implements when every camouflaged instance is configured for select word
    ``s`` — the same tables per-configuration exhaustive extraction yields.
    Narrow combined spaces are one packed simulation pass over the
    (data × select) pattern product; wider select spaces take one pass per
    block of select words.
    """
    from ..sim.engine import sweep_select_space

    return sweep_select_space(
        netlist, select_order, instance_selects, instance_configs
    )
