"""Simulation-guided pre-filters: kill queries before the SAT solver runs.

Classic SAT practice runs cheap massively-parallel random simulation before
every expensive solver call; most candidates die in the simulator.  This
module packages that discipline for the three query shapes of this project:

* :func:`fuzz_netlist_vs_function` / :func:`fuzz_netlist_vs_netlist` —
  equivalence queries.  Random (or exhaustive, when the input space is
  small) packed simulation either produces a genuine counterexample — the
  query is *refuted* without SAT — or, when the pass was exhaustive, proves
  equivalence outright.
* :func:`possibility_refute` — plausibility queries ("can some assignment
  of plausible functions realise this candidate?").  A three-valued packed
  pass computes, per input word and net, which values are achievable under
  *any* per-instance choice; a candidate needing an unachievable output bit
  is refuted.  The per-word choices are uncorrelated, so the achievable set
  is over-approximated and a refutation is always sound.  The positive side
  of the same query is handled by the CEGAR loop in
  :class:`~repro.attacks.decamouflage.PlausibleFunctionOracle`, which uses
  the packed engine to verify solver models against the whole input space.

All pre-filters are *verdict-preserving*: they only ever return answers
that the solver would also have returned.  They are **enabled by default**;
passing ``prefilter=False`` at the call sites opts *out*, which is what the
solver-call-count regression tests do — they pin solver behaviour
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .._bitops import mask_for
from ..logic.boolfunc import BoolFunction
from ..logic.truthtable import TruthTable
from ..netlist.netlist import CONST0_NET, CONST1_NET, Netlist, NetlistError
from .engine import NetlistSimulator
from .patterns import PatternBatch, RandomPatternSource, ReplayBuffer

__all__ = [
    "FuzzOutcome",
    "FUZZ_EXHAUSTIVE_LIMIT",
    "DEFAULT_FUZZ_PATTERNS",
    "fuzz_netlist_vs_function",
    "fuzz_netlist_vs_netlist",
    "PossibilityAnalysis",
    "possibility_refute",
]

#: Input counts up to this bound are fuzzed exhaustively (a complete check).
FUZZ_EXHAUSTIVE_LIMIT = 12

#: Random patterns per fuzz round when the input space is too wide to enumerate.
DEFAULT_FUZZ_PATTERNS = 64


@dataclass
class FuzzOutcome:
    """Result of one fuzz pass.

    ``counterexample`` is an input word on which the two sides differ (None
    when none was found); ``complete`` is True when the pass covered the
    whole input space, in which case "no counterexample" *proves* equality.
    """

    counterexample: Optional[int] = None
    complete: bool = False
    patterns: int = 0

    @property
    def refuted(self) -> bool:
        """True when a genuine counterexample was found."""
        return self.counterexample is not None

    @property
    def proven(self) -> bool:
        """True when the (exhaustive) pass proved the two sides equal."""
        return self.complete and self.counterexample is None


def _fuzz_batch(
    num_inputs: int,
    patterns: int,
    seed: int,
    replay: Optional[ReplayBuffer],
) -> Tuple[PatternBatch, bool]:
    """Choose the fuzz batch: exhaustive when small, else replay + random."""
    if num_inputs <= FUZZ_EXHAUSTIVE_LIMIT:
        return PatternBatch.exhaustive(num_inputs), True
    words: List[int] = []
    if replay is not None:
        # One buffer may be shared between circuits of different widths;
        # drop words that do not fit this circuit (as ReplayBuffer.batch does).
        space = 1 << num_inputs
        words.extend(
            word for word in replay.words(limit=patterns) if 0 <= word < space
        )
    source = RandomPatternSource(seed)
    needed = max(patterns - len(words), 1)
    words.extend(source.words(num_inputs, needed))
    return PatternBatch.from_words(num_inputs, words), False


def _candidate_lanes(function: BoolFunction, batch: PatternBatch) -> List[int]:
    """The expected output lanes of a reference function over a batch."""
    lanes = [0] * function.num_outputs
    for position in range(batch.num_patterns):
        word = batch.word_at(position)
        value = function.evaluate_word(word)
        for index in range(function.num_outputs):
            if (value >> index) & 1:
                lanes[index] |= 1 << position
    return lanes


def _first_difference(lane_pairs: Sequence[Tuple[int, int]]) -> Optional[int]:
    """Pattern index of the first differing bit over any lane pair."""
    combined = 0
    for lane_a, lane_b in lane_pairs:
        combined |= lane_a ^ lane_b
    if not combined:
        return None
    return (combined & -combined).bit_length() - 1


def fuzz_netlist_vs_function(
    netlist: Netlist,
    function: BoolFunction,
    cell_functions: Optional[Mapping[str, TruthTable]] = None,
    patterns: int = DEFAULT_FUZZ_PATTERNS,
    seed: int = 1,
    replay: Optional[ReplayBuffer] = None,
    simulator: Optional[NetlistSimulator] = None,
    exhaustive_lanes: Optional[Sequence[int]] = None,
) -> FuzzOutcome:
    """Fuzz a netlist against a reference function.

    Exhaustive (and therefore *complete*) when the input count is at most
    :data:`FUZZ_EXHAUSTIVE_LIMIT`; otherwise replay-buffer words are tried
    first, topped up with seeded random patterns.  A found counterexample is
    recorded in the replay buffer.  Callers checking many candidates against
    one netlist can pass the (candidate-independent) ``exhaustive_lanes``
    they cached so the exhaustive pass is simulated only once.
    """
    num_inputs = len(netlist.primary_inputs)
    batch, complete = _fuzz_batch(num_inputs, patterns, seed, replay)
    if complete and exhaustive_lanes is not None:
        expected = [table.bits for table in function.outputs]
        position = _first_difference(list(zip(exhaustive_lanes, expected)))
    else:
        simulator = simulator if simulator is not None else NetlistSimulator(netlist)
        actual = simulator.output_lanes(batch, cell_functions)
        expected = (
            [table.bits for table in function.outputs]
            if complete
            else _candidate_lanes(function, batch)
        )
        position = _first_difference(list(zip(actual, expected)))
    if position is None:
        return FuzzOutcome(None, complete, batch.num_patterns)
    word = batch.word_at(position)
    if replay is not None:
        replay.add(word)
    return FuzzOutcome(word, complete, batch.num_patterns)


def fuzz_netlist_vs_netlist(
    netlist_a: Netlist,
    netlist_b: Netlist,
    cell_functions_a: Optional[Mapping[str, TruthTable]] = None,
    cell_functions_b: Optional[Mapping[str, TruthTable]] = None,
    patterns: int = DEFAULT_FUZZ_PATTERNS,
    seed: int = 1,
    replay: Optional[ReplayBuffer] = None,
) -> FuzzOutcome:
    """Fuzz two netlists against each other on a shared pattern batch."""
    num_inputs = len(netlist_a.primary_inputs)
    if num_inputs != len(netlist_b.primary_inputs):
        raise ValueError("netlists have different numbers of primary inputs")
    batch, complete = _fuzz_batch(num_inputs, patterns, seed, replay)
    lanes_a = NetlistSimulator(netlist_a).output_lanes(batch, cell_functions_a)
    lanes_b = NetlistSimulator(netlist_b).output_lanes(batch, cell_functions_b)
    position = _first_difference(list(zip(lanes_a, lanes_b)))
    if position is None:
        return FuzzOutcome(None, complete, batch.num_patterns)
    word = batch.word_at(position)
    if replay is not None:
        replay.add(word)
    return FuzzOutcome(word, complete, batch.num_patterns)


# ------------------------------------------------------------------ #
# Plausibility pre-filters (camouflaged netlists)
# ------------------------------------------------------------------ #
class PossibilityAnalysis:
    """Three-valued achievability maps of a camouflaged netlist.

    For every output and input word the analysis records whether the value
    0 and the value 1 are each achievable under *some* per-instance choice
    of plausible function (choices uncorrelated across words and instances,
    so the sets only ever grow — an over-approximation).  The maps depend
    only on the netlist and the plausible families, so one analysis serves
    every candidate query of an oracle; :meth:`refute` is then a handful of
    bitwise comparisons per candidate.
    """

    def __init__(
        self,
        netlist: Netlist,
        instance_plausible: Mapping[str, Sequence[TruthTable]],
    ):
        self._netlist = netlist
        num_inputs = len(netlist.primary_inputs)
        batch = PatternBatch.exhaustive(num_inputs)
        mask = self.mask = batch.mask
        can0: Dict[str, int] = {CONST0_NET: mask, CONST1_NET: 0}
        can1: Dict[str, int] = {CONST0_NET: 0, CONST1_NET: mask}
        for index, net in enumerate(netlist.primary_inputs):
            lane = batch.lane(index)
            can1[net] = lane
            can0[net] = lane ^ mask

        for instance in netlist.topological_order():
            functions = instance_plausible.get(instance.name)
            if functions is None:
                functions = [netlist.library[instance.cell].function]
            arity = len(instance.inputs)
            pin_can0 = [can0[net] for net in instance.inputs]
            pin_can1 = [can1[net] for net in instance.inputs]
            reach1 = 0
            reach0 = 0
            for function in functions:
                if function.num_vars != arity:
                    raise NetlistError(
                        f"plausible function of instance {instance.name!r} has "
                        f"{function.num_vars} variables but the instance has "
                        f"{arity} pins"
                    )
                # Achievable-1: some on-set row is pin-wise achievable.
                reach1 |= _achievable_rows(
                    function.bits, arity, pin_can0, pin_can1, mask
                )
                off = (
                    function.bits ^ mask_for(arity)
                    if arity
                    else (~function.bits) & 1
                )
                reach0 |= _achievable_rows(off, arity, pin_can0, pin_can1, mask)
                if reach0 == mask and reach1 == mask:
                    break
            can1[instance.output] = reach1
            can0[instance.output] = reach0

        self.output_can0: List[int] = []
        self.output_can1: List[int] = []
        for net in netlist.primary_outputs:
            if net not in can1:
                raise NetlistError(f"primary output {net!r} is undriven")
            self.output_can0.append(can0[net])
            self.output_can1.append(can1[net])

    def refute(self, candidate: BoolFunction) -> Optional[int]:
        """Word where the candidate needs an unachievable bit (None if none)."""
        mask = self.mask
        for index in range(len(self.output_can1)):
            required = candidate.output(index).bits
            violation = (required & (self.output_can1[index] ^ mask)) | (
                (required ^ mask) & (self.output_can0[index] ^ mask)
            )
            if violation:
                return (violation & -violation).bit_length() - 1
        return None


def possibility_refute(
    netlist: Netlist,
    instance_plausible: Mapping[str, Sequence[TruthTable]],
    candidate: BoolFunction,
) -> Optional[int]:
    """Sound one-shot refutation of a plausibility query (see the class).

    Callers with many candidates should build one :class:`PossibilityAnalysis`
    and call :meth:`~PossibilityAnalysis.refute` per candidate instead.
    """
    return PossibilityAnalysis(netlist, instance_plausible).refute(candidate)


def _achievable_rows(
    rows: int, arity: int, pin_can0: Sequence[int], pin_can1: Sequence[int], mask: int
) -> int:
    """Patterns where some listed row is achievable pin-by-pin."""
    if arity == 0:
        return mask if rows & 1 else 0
    result = 0
    remaining = rows & mask_for(arity)
    while remaining:
        low = remaining & -remaining
        row = low.bit_length() - 1
        remaining ^= low
        term = mask
        for var in range(arity):
            term &= pin_can1[var] if (row >> var) & 1 else pin_can0[var]
            if not term:
                break
        result |= term
        if result == mask:
            break
    return result


