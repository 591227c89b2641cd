"""Packed word-parallel simulation engines for netlists and AIGs.

The engines evaluate a circuit on a whole :class:`~repro.sim.patterns.
PatternBatch` in one topological pass: every net carries a packed integer
*lane* whose bit ``p`` is the net's value under pattern ``p``.  A cell with
``k`` pins costs at most ``2**k`` bitwise operations on lanes — independent
of the number of patterns — so oracle queries, fuzz testing, plausibility
sweeps and exhaustive extraction all run at big-integer speed instead of one
Python dispatch per (instance, pattern) pair.

:class:`NetlistSimulator` supports the same per-instance ``cell_functions``
overrides as :mod:`repro.netlist.simulate`, which is how camouflaged
configurations are evaluated, and :func:`sweep_select_space` folds an entire
camouflage select space into a single packed pass (patterns range over
*data inputs × select words* simultaneously).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .._bitops import mask_for, popcount, variable_pattern
from ..aig.aig import Aig, is_complemented, node_of
from ..logic.boolfunc import BoolFunction
from ..logic.truthtable import TruthTable
from ..netlist.netlist import CONST0_NET, CONST1_NET, Netlist, NetlistError
from .patterns import PatternBatch

__all__ = [
    "evaluate_table_lanes",
    "NetlistSimulator",
    "AigSimulator",
    "simulate_batch",
    "simulate_words",
    "sweep_select_space",
]


def evaluate_table_lanes(
    bits: int, arity: int, input_lanes: Sequence[int], mask: int
) -> int:
    """Evaluate a packed truth table on packed input lanes.

    ``bits`` is the table of an ``arity``-input function; ``input_lanes[i]``
    carries input ``i`` over the batch; ``mask`` is the all-ones lane.  The
    result lane holds the function value per pattern.  The on-set or the
    off-set is expanded, whichever is smaller.
    """
    if arity == 0:
        return mask if bits & 1 else 0
    full = mask_for(arity)
    bits &= full
    if bits == 0:
        return 0
    if bits == full:
        return mask
    ones = popcount(bits)
    invert = ones * 2 > (1 << arity)
    rows = bits ^ full if invert else bits
    result = 0
    remaining = rows
    while remaining:
        low = remaining & -remaining
        row = low.bit_length() - 1
        remaining ^= low
        term = mask
        for var in range(arity):
            lane = input_lanes[var]
            term &= lane if (row >> var) & 1 else lane ^ mask
            if not term:
                break
        result |= term
    return result ^ mask if invert else result


def _word_from_lanes(lanes: Sequence[int], position: int) -> int:
    word = 0
    for index, lane in enumerate(lanes):
        if (lane >> position) & 1:
            word |= 1 << index
    return word


class NetlistSimulator:
    """Word-parallel simulator for a :class:`~repro.netlist.netlist.Netlist`.

    The topological order and per-instance nominal functions are resolved
    once at construction, so repeated batches — and repeated configuration
    overrides of the *same* netlist, the camouflage verification pattern —
    pay only the packed evaluation itself.

    ``cell_functions`` (at construction or per call, the call-level mapping
    winning instance-by-instance) replaces the logic function of individual
    instances, exactly as in :func:`repro.netlist.simulate.extract_function`.
    """

    def __init__(
        self,
        netlist: Netlist,
        cell_functions: Optional[Mapping[str, TruthTable]] = None,
    ):
        self._netlist = netlist
        self._order = netlist.topological_order()
        self._base_functions: List[Tuple[str, TruthTable, Tuple[str, ...], str]] = []
        for instance in self._order:
            function = netlist.library[instance.cell].function
            self._base_functions.append(
                (instance.name, function, tuple(instance.inputs), instance.output)
            )
        self._cell_functions = dict(cell_functions) if cell_functions else None

    @property
    def netlist(self) -> Netlist:
        """The simulated netlist."""
        return self._netlist

    @property
    def num_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self._netlist.primary_inputs)

    # -------------------------------------------------------------- #
    # Core pass
    # -------------------------------------------------------------- #
    def _resolve(
        self, name: str, nominal: TruthTable, cell_functions
    ) -> TruthTable:
        if cell_functions is not None:
            override = cell_functions.get(name)
            if override is not None:
                return override
        if self._cell_functions is not None:
            override = self._cell_functions.get(name)
            if override is not None:
                return override
        return nominal

    def net_lanes(
        self,
        batch: PatternBatch,
        cell_functions: Optional[Mapping[str, TruthTable]] = None,
    ) -> Dict[str, int]:
        """Simulate the batch and return the lane of every net."""
        netlist = self._netlist
        if batch.num_inputs != len(netlist.primary_inputs):
            raise NetlistError(
                f"batch assigns {batch.num_inputs} inputs but the netlist has "
                f"{len(netlist.primary_inputs)}"
            )
        mask = batch.mask
        lanes: Dict[str, int] = {CONST0_NET: 0, CONST1_NET: mask}
        for index, net in enumerate(netlist.primary_inputs):
            lanes[net] = batch.lane(index)
        for name, nominal, inputs, output_net in self._base_functions:
            function = self._resolve(name, nominal, cell_functions)
            if function.num_vars != len(inputs):
                raise NetlistError(
                    f"cell function override for instance {name!r} has "
                    f"{function.num_vars} variables but the instance has "
                    f"{len(inputs)} pins"
                )
            input_lanes = [lanes[net] for net in inputs]
            lanes[output_net] = evaluate_table_lanes(
                function.bits, function.num_vars, input_lanes, mask
            )
        return lanes

    def output_lanes(
        self,
        batch: PatternBatch,
        cell_functions: Optional[Mapping[str, TruthTable]] = None,
    ) -> List[int]:
        """Simulate the batch and return one lane per primary output."""
        lanes = self.net_lanes(batch, cell_functions)
        outputs: List[int] = []
        for net in self._netlist.primary_outputs:
            if net not in lanes:
                raise NetlistError(f"primary output {net!r} is undriven")
            outputs.append(lanes[net])
        return outputs

    # -------------------------------------------------------------- #
    # Word-level conveniences
    # -------------------------------------------------------------- #
    def simulate_words(
        self,
        words: Sequence[int],
        cell_functions: Optional[Mapping[str, TruthTable]] = None,
    ) -> List[int]:
        """Evaluate a batch of input words, returning one output word each."""
        if not words:
            return []
        batch = PatternBatch.from_words(len(self._netlist.primary_inputs), words)
        lanes = self.output_lanes(batch, cell_functions)
        return [
            _word_from_lanes(lanes, position) for position in range(batch.num_patterns)
        ]

    def extract_function(
        self,
        cell_functions: Optional[Mapping[str, TruthTable]] = None,
        name: Optional[str] = None,
    ) -> BoolFunction:
        """Exhaustively simulate into a :class:`BoolFunction` (one packed pass)."""
        netlist = self._netlist
        num_inputs = len(netlist.primary_inputs)
        batch = PatternBatch.exhaustive(num_inputs)
        lanes = self.output_lanes(batch, cell_functions)
        return BoolFunction(
            [TruthTable(num_inputs, lane) for lane in lanes],
            name=name or netlist.name,
            input_names=list(netlist.primary_inputs),
            output_names=list(netlist.primary_outputs),
        )


class AigSimulator:
    """Word-parallel simulator for an :class:`~repro.aig.aig.Aig`."""

    def __init__(self, aig: Aig):
        self._aig = aig

    @property
    def aig(self) -> Aig:
        """The simulated AIG."""
        return self._aig

    def node_lanes(self, batch: PatternBatch) -> List[int]:
        """Simulate the batch; entry ``n`` is the lane of node ``n``."""
        aig = self._aig
        if batch.num_inputs != aig.num_inputs:
            raise ValueError(
                f"batch assigns {batch.num_inputs} inputs but the AIG has "
                f"{aig.num_inputs}"
            )
        mask = batch.mask
        lanes = [0] * aig.num_nodes
        for index in range(aig.num_inputs):
            lanes[node_of(aig.input_literal(index))] = batch.lane(index)
        for node in range(1, aig.num_nodes):
            if aig.is_input_node(node):
                continue
            fanin0, fanin1 = aig.fanins(node)
            value0 = lanes[node_of(fanin0)]
            if is_complemented(fanin0):
                value0 ^= mask
            value1 = lanes[node_of(fanin1)]
            if is_complemented(fanin1):
                value1 ^= mask
            lanes[node] = value0 & value1
        return lanes

    def output_lanes(self, batch: PatternBatch) -> List[int]:
        """Simulate the batch and return one lane per primary output."""
        lanes = self.node_lanes(batch)
        mask = batch.mask
        outputs: List[int] = []
        for literal in self._aig.outputs:
            lane = lanes[node_of(literal)]
            outputs.append(lane ^ mask if is_complemented(literal) else lane)
        return outputs

    def simulate_words(self, words: Sequence[int]) -> List[int]:
        """Evaluate a batch of input words, returning one output word each."""
        if not words:
            return []
        batch = PatternBatch.from_words(self._aig.num_inputs, words)
        lanes = self.output_lanes(batch)
        return [
            _word_from_lanes(lanes, position) for position in range(batch.num_patterns)
        ]


def simulate_batch(
    netlist: Netlist,
    batch: PatternBatch,
    cell_functions: Optional[Mapping[str, TruthTable]] = None,
) -> Dict[str, int]:
    """One-shot packed simulation: lane of every net over the batch."""
    return NetlistSimulator(netlist).net_lanes(batch, cell_functions)


def simulate_words(
    netlist: Netlist,
    words: Sequence[int],
    cell_functions: Optional[Mapping[str, TruthTable]] = None,
) -> List[int]:
    """One-shot packed simulation of explicit input words (output word each)."""
    return NetlistSimulator(netlist).simulate_words(words, cell_functions)


#: Beyond this many combined (data + select) variables a single packed sweep
#: would manipulate multi-megabit integers; wider sweeps run one packed pass
#: per block of select words (see :func:`sweep_select_space`).
SWEEP_WIDTH_LIMIT = 20


def sweep_select_space(
    netlist: Netlist,
    select_order: Sequence[str],
    instance_selects: Mapping[str, Sequence[str]],
    instance_configs: Mapping[str, Mapping[Tuple[int, ...], TruthTable]],
) -> List[List[int]]:
    """Evaluate every camouflage configuration with packed passes.

    The pattern space is the product of the data inputs and the select word:
    pattern ``x + (s << num_data_inputs)`` applies data word ``x`` under
    select word ``s``.  A camouflaged instance contributes, per select
    assignment of its local select nets, its configured function masked to
    the patterns where that assignment is active — so a single topological
    pass produces the realised behaviour of *all* ``2**num_selects``
    configurations.

    When the combined (data + select) width exceeds
    :data:`SWEEP_WIDTH_LIMIT`, the high select bits are pinned per block
    and each block is one packed pass over ``data × low selects``, exactly
    at the width limit.  Select word ``s`` lands in block
    ``s >> num_free_selects``, so concatenating the block tables in block
    order reproduces the single-pass result.

    Returns one word-level lookup table per select word (the same tables
    ``extract_function(...).lookup_table()`` yields per configuration).
    """
    num_data = len(netlist.primary_inputs)
    if num_data > SWEEP_WIDTH_LIMIT:
        raise ValueError(
            f"select sweep needs {num_data} data variables per packed "
            f"pass, more than the width limit ({SWEEP_WIDTH_LIMIT}); "
            f"exhaustive data enumeration is infeasible at this width"
        )
    num_free = min(len(select_order), SWEEP_WIDTH_LIMIT - num_data)
    fixed_nets = list(select_order[num_free:])
    tables: List[List[int]] = []
    for block in range(1 << len(fixed_nets)):
        fixed = {net: (block >> offset) & 1 for offset, net in enumerate(fixed_nets)}
        lanes = _sweep_lanes(
            netlist, select_order, instance_selects, instance_configs, fixed
        )
        tables.extend(_tables_from_sweep_lanes(lanes, num_data, num_free))
    return tables


def _sweep_lanes(
    netlist: Netlist,
    select_order: Sequence[str],
    instance_selects: Mapping[str, Sequence[str]],
    instance_configs: Mapping[str, Mapping[Tuple[int, ...], TruthTable]],
    fixed_selects: Mapping[str, int],
) -> List[int]:
    """Primary-output lanes of one packed sweep pass.

    ``fixed_selects`` pins a subset of the select nets to constants (a
    wide sweep uses this to sweep one block of the select space); the
    remaining *free* selects become pattern variables above the data inputs,
    in ``select_order`` order.
    """
    data_inputs = list(netlist.primary_inputs)
    num_data = len(data_inputs)
    free_selects = [net for net in select_order if net not in fixed_selects]
    width = num_data + len(free_selects)
    mask = mask_for(width)
    lanes: Dict[str, int] = {CONST0_NET: 0, CONST1_NET: mask}
    for index, net in enumerate(data_inputs):
        lanes[net] = variable_pattern(index, width)
    select_lanes = {
        net: variable_pattern(num_data + index, width)
        for index, net in enumerate(free_selects)
    }
    for net, value in fixed_selects.items():
        select_lanes[net] = mask if value else 0

    for instance in netlist.topological_order():
        input_lanes = [lanes[net] for net in instance.inputs]
        configs = instance_configs.get(instance.name)
        if configs is None:
            function = netlist.library[instance.cell].function
            lanes[instance.output] = evaluate_table_lanes(
                function.bits, function.num_vars, input_lanes, mask
            )
            continue
        local_selects = list(instance_selects[instance.name])
        output_lane = 0
        for assignment, function in configs.items():
            if len(assignment) != len(local_selects):
                raise ValueError(
                    f"select assignment of instance {instance.name!r} has "
                    f"{len(assignment)} values for {len(local_selects)} select nets"
                )
            active = mask
            for value, net in zip(assignment, local_selects):
                lane = select_lanes[net]
                active &= lane if value else lane ^ mask
            if not active:
                continue
            output_lane |= active & evaluate_table_lanes(
                function.bits, function.num_vars, input_lanes, mask
            )
        lanes[instance.output] = output_lane

    output_lanes: List[int] = []
    for net in netlist.primary_outputs:
        if net not in lanes:
            raise NetlistError(f"primary output {net!r} is undriven")
        output_lanes.append(lanes[net])
    return output_lanes


def _tables_from_sweep_lanes(
    output_lanes: Sequence[int], num_data: int, num_free_selects: int
) -> List[List[int]]:
    """Unpack sweep lanes into one lookup table per (free) select word."""
    data_rows = 1 << num_data
    data_mask = (1 << data_rows) - 1
    tables: List[List[int]] = []
    for select_word in range(1 << num_free_selects):
        blocks = [
            (lane >> (select_word * data_rows)) & data_mask for lane in output_lanes
        ]
        table = [
            _word_from_lanes(blocks, position) for position in range(data_rows)
        ]
        tables.append(table)
    return tables
