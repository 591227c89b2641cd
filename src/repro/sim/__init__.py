"""Word-parallel simulation subsystem.

Every net of a circuit carries a packed Python-int *lane*: bit ``p`` of the
lane is the net's value under pattern ``p`` of a :class:`PatternBatch`.  This
generalises the trick :class:`~repro.logic.truthtable.TruthTable` uses for
exhaustive simulation to arbitrary batches of input patterns, and gives three
services the attack / verification flows build on:

* :mod:`repro.sim.patterns` — pattern sources: explicit batches, exhaustive
  enumeration, seeded random streams, and counterexample replay buffers that
  persist DIPs/witnesses across calls;
* :mod:`repro.sim.engine` — the packed simulation engines for
  :class:`~repro.netlist.netlist.Netlist` (including per-instance
  ``cell_functions`` overrides for camouflaged cells) and
  :class:`~repro.aig.aig.Aig`, plus the camouflage select-space sweep;
* :mod:`repro.sim.prefilter` — simulation-guided pre-filters that refute or
  confirm queries *before* a SAT solver is invoked (fuzz-before-SAT).
"""

from .engine import (
    AigSimulator,
    NetlistSimulator,
    simulate_batch,
    simulate_words,
    sweep_select_space,
)
from .patterns import PatternBatch, RandomPatternSource, ReplayBuffer
from .prefilter import (
    FuzzOutcome,
    PossibilityAnalysis,
    fuzz_netlist_vs_function,
    fuzz_netlist_vs_netlist,
    possibility_refute,
)

__all__ = [
    "PatternBatch",
    "RandomPatternSource",
    "ReplayBuffer",
    "NetlistSimulator",
    "AigSimulator",
    "simulate_batch",
    "simulate_words",
    "sweep_select_space",
    "FuzzOutcome",
    "fuzz_netlist_vs_function",
    "fuzz_netlist_vs_netlist",
    "PossibilityAnalysis",
    "possibility_refute",
]
