"""Phase III driver: camouflage technology mapping of a merged netlist.

Takes the synthesised merged netlist (whose primary inputs include the
select signals), covers every fanout-free tree with camouflaged cells using
:func:`repro.techmap.cover.cover_tree`, and assembles the camouflaged
netlist.  The select inputs disappear: every dependence on them has been
absorbed into the choice of plausible function of some camouflaged cell.

The result object keeps, for every camouflaged instance, the mapping from
local select assignments to configured functions, so that the designer can
derive the cell configuration realising any viable function
(:meth:`CamouflagedMapping.configuration_for_select`) and the verification
and attack modules can reason about plausible functions per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..camo.config import CircuitConfiguration
from ..camo.library import CamouflageLibrary, default_camouflage_library
from ..logic.truthtable import TruthTable
from ..netlist.netlist import Netlist
from .cover import TreeCover, cover_tree
from .trees import decompose_into_trees

__all__ = ["CamouflagedMapping", "camouflage_map"]


@dataclass
class CamouflagedMapping:
    """The camouflaged implementation produced by Phase III."""

    netlist: Netlist
    camo_library: CamouflageLibrary
    select_order: Tuple[str, ...]
    #: instance name -> (ordered select nets local to that instance)
    instance_selects: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: instance name -> {local select assignment -> configured function}
    instance_configs: Dict[str, Dict[Tuple[int, ...], TruthTable]] = field(default_factory=dict)
    tree_covers: List[TreeCover] = field(default_factory=list)

    # -------------------------------------------------------------- #
    # Area
    # -------------------------------------------------------------- #
    def area(self) -> float:
        """Total area of the camouflaged netlist in gate equivalents."""
        return self.netlist.area()

    def num_camouflaged_cells(self) -> int:
        """Number of camouflaged cell instances."""
        return len(self.instance_configs)

    # -------------------------------------------------------------- #
    # Designer-side configuration
    # -------------------------------------------------------------- #
    def configuration_for_select(self, select_word: int) -> CircuitConfiguration:
        """Return the cell configuration realising the given select word.

        Bit ``k`` of ``select_word`` is the value of ``select_order[k]``
        (the merged design's ``sel[k]`` input).
        """
        limit = max(1, 1 << len(self.select_order))
        if not 0 <= select_word < limit:
            raise ValueError("select word out of range")
        select_value = {
            net: (select_word >> index) & 1 for index, net in enumerate(self.select_order)
        }
        configuration = CircuitConfiguration()
        for instance_name, by_select in self.instance_configs.items():
            local = tuple(
                select_value[net] for net in self.instance_selects[instance_name]
            )
            configuration.set(instance_name, by_select[local])
        return configuration

    def realised_lookup_tables(self) -> List[List[int]]:
        """Lookup table realised by every select configuration (packed sweep).

        Entry ``s`` equals ``extract_function(netlist, cell_functions=
        configuration_for_select(s).as_cell_functions()).lookup_table()`` but
        the whole select space is swept word-parallel — one pass when the
        combined width fits, one pass per block of select words otherwise.
        """
        from ..camo.config import sweep_configurations

        return sweep_configurations(
            self.netlist,
            self.select_order,
            self.instance_selects,
            self.instance_configs,
        )

    def plausible_functions_of(self, instance_name: str) -> Tuple[TruthTable, ...]:
        """Plausible functions (adversary view) of a camouflaged instance."""
        instance = self.netlist.instance(instance_name)
        return tuple(self.camo_library[instance.cell].plausible)

    def camouflaged_instances(self) -> List[str]:
        """Names of all camouflaged instances."""
        return list(self.instance_configs)


def camouflage_map(
    synthesized: Netlist,
    select_nets: Sequence[str],
    camo_library: Optional[CamouflageLibrary] = None,
    max_depth: int = 2,
    name: Optional[str] = None,
) -> CamouflagedMapping:
    """Map a synthesised merged netlist onto camouflaged cells (Phase III)."""
    camo_library = camo_library or default_camouflage_library(synthesized.library)
    select_set = set(select_nets)
    missing = [net for net in select_nets if net not in synthesized.primary_inputs]
    if missing:
        raise ValueError(f"select nets {missing} are not primary inputs of the netlist")

    data_inputs = [net for net in synthesized.primary_inputs if net not in select_set]
    padding_net = data_inputs[0] if data_inputs else None

    covers: List[TreeCover] = [
        cover_tree(
            synthesized,
            tree,
            select_nets,
            camo_library,
            max_depth=max_depth,
            padding_net=padding_net,
        )
        for tree in decompose_into_trees(synthesized)
    ]

    mapped_library = camo_library.as_cell_library(include=synthesized.library)
    result = Netlist(name or f"{synthesized.name}_camo", mapped_library)
    for net in data_inputs:
        result.add_input(net)

    mapping = CamouflagedMapping(
        netlist=result,
        camo_library=camo_library,
        select_order=tuple(select_nets),
        tree_covers=covers,
    )

    counter = 0
    for cover in covers:
        for covered in cover.cells:
            counter += 1
            instance = result.add_instance(
                covered.cell_name,
                list(covered.pin_nets),
                output=covered.output_net,
                name=f"camo_{counter}_{covered.cell_name.lower()}",
                attributes={
                    "data_leaves": covered.data_leaves,
                    "select_leaves": covered.select_leaves,
                },
            )
            mapping.instance_selects[instance.name] = covered.select_leaves
            mapping.instance_configs[instance.name] = dict(covered.config_by_select)

    for net in synthesized.primary_outputs:
        result.add_output(net)
    return mapping
