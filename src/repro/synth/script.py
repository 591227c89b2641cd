"""Synthesis scripts: fixed AIG optimisation pass sequences plus mapping.

The paper drives ABC with a custom script "comprising multiple refactor,
rewrite and balance commands".  :func:`optimize_aig` is our equivalent: it
replays a named effort-level pass sequence (``fast``/``standard``/``high``)
for up to ``max_rounds`` rounds.

:func:`synthesize` goes all the way from a multi-output function to a mapped
netlist and is the fitness kernel used by the pin-assignment search of
Phase II.  Every run feeds the module-level synthesis telemetry
(:func:`synthesis_telemetry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..aig.aig import Aig
from ..aig.build import aig_from_function
from ..aig.opt import apply_pass
from ..logic.boolfunc import BoolFunction
from ..netlist.library import CellLibrary, standard_cell_library
from ..netlist.netlist import Netlist
from ..telemetry import RunTelemetry
from .mapper import map_to_cells

__all__ = [
    "SynthesisEffort",
    "SynthesisResult",
    "optimize_aig",
    "synthesize",
    "synthesis_telemetry",
    "reset_synthesis_telemetry",
    "synthesis_counters",
    "synthesis_counters_since",
]

#: Named pass sequences, in increasing effort/runtime order.
_PASS_SEQUENCES: Dict[str, List[str]] = {
    # A single cheap cleanup: useful for tests and for very large sweeps.
    "fast": ["balance", "rewrite"],
    # The default: roughly ABC's resyn.
    "standard": ["balance", "rewrite", "refactor", "balance", "rewrite"],
    # Roughly resyn2 run twice, for final (post-GA) synthesis runs.
    "high": [
        "balance", "rewrite", "refactor", "balance", "rewrite",
        "rewrite-z", "balance", "refactor-z", "rewrite-z", "balance",
    ],
}


class SynthesisEffort:
    """Symbolic names for the supported effort levels."""

    FAST = "fast"
    STANDARD = "standard"
    HIGH = "high"

    @staticmethod
    def passes(effort: str) -> List[str]:
        """Return the pass names for an effort level."""
        try:
            return list(_PASS_SEQUENCES[effort])
        except KeyError as exc:
            raise ValueError(
                f"unknown synthesis effort {effort!r}; expected one of "
                f"{sorted(_PASS_SEQUENCES)}"
            ) from exc


# ---------------------------------------------------------------------------
# Module-level synthesis telemetry
# ---------------------------------------------------------------------------

_TELEMETRY = RunTelemetry(label="synth")


def synthesis_telemetry() -> RunTelemetry:
    """The live, process-wide synthesis telemetry record.

    Counters live in the ``synth`` scope: ``runs``, ``passes_scheduled``
    (every pass slot of the script, including memo-reused ones),
    ``passes_executed`` (actual pass applications) and per-pass cumulative
    AND-count gains under ``gain.<pass>``.
    """
    return _TELEMETRY


def reset_synthesis_telemetry() -> RunTelemetry:
    """Reset and return the module telemetry (tests and benchmark legs)."""
    _TELEMETRY.scopes.clear()
    return _TELEMETRY


def synthesis_counters() -> Dict[str, float]:
    """A copy of the live ``synth`` counters, to diff against later."""
    return dict(_TELEMETRY.scopes.get("synth", {}))


def synthesis_counters_since(before: Dict[str, float]) -> Dict[str, float]:
    """How much each ``synth`` counter moved since ``before``.

    ``before`` is a :func:`synthesis_counters` copy; counters that did not
    move are left out.
    """
    return {
        key: value - before.get(key, 0)
        for key, value in _TELEMETRY.scopes.get("synth", {}).items()
        if value != before.get(key, 0)
    }


@dataclass
class SynthesisResult:
    """Everything produced by a synthesis run."""

    aig: Aig
    netlist: Netlist
    area: float
    and_count: int
    pass_trace: List[Tuple[str, int]] = field(default_factory=list)
    telemetry: Optional[RunTelemetry] = None

    @property
    def pass_gains(self) -> List[Tuple[str, int]]:
        """Per-pass AND-count gains recovered from the trace.

        Entry ``(name, gain)`` means pass ``name`` removed ``gain`` AND nodes
        (negative: it grew the AIG, as zero-gain passes may).  The leading
        ``strash`` trace entry provides the baseline and is not reported.
        """
        gains: List[Tuple[str, int]] = []
        previous: Optional[int] = None
        for name, count in self.pass_trace:
            if previous is not None and name != "strash":
                gains.append((name, previous - count))
            previous = count
        return gains

    def __repr__(self) -> str:
        return (
            f"SynthesisResult(area={self.area:.2f} GE, ands={self.and_count}, "
            f"gates={self.netlist.num_instances()})"
        )


def _apply_pass(aig: Aig, pass_name: str) -> Aig:
    return apply_pass(aig, pass_name)


def _aig_structure_key(aig: Aig) -> Tuple:
    """A hashable key identifying the structure of a compacted AIG.

    Two AIGs with the same key have identical inputs, AND fanins and output
    literals, so every (deterministic, structure-driven) optimisation pass
    provably produces the same result on both.  The AND fanin pairs come in
    node order; node 0, the constant, is neither an input nor an AND node.
    """
    fanins0, fanins1, is_input = aig.node_arrays()
    pairs = zip(fanins0[1:], fanins1[1:], is_input[1:])
    return (
        aig.num_inputs,
        tuple((fanin0, fanin1) for fanin0, fanin1, input_ in pairs if not input_),
        tuple(aig.outputs),
    )


def optimize_aig(
    aig: Aig,
    effort: str = SynthesisEffort.STANDARD,
    max_rounds: int = 2,
    trace: Optional[List[Tuple[str, int]]] = None,
) -> Aig:
    """Optimise an AIG with the effort level's fixed pass sequence.

    The sequence is repeated up to ``max_rounds`` times, stopping early when
    a full round makes no further progress.  The best AIG seen (by AND
    count) is returned, and ``(pass name, AND count)`` entries are appended
    to ``trace``, starting with the structurally hashed input as ``strash``.

    Per-pass fixed-point detection: every pass is a deterministic function of
    the AIG structure, so when a pass is about to run on the exact structure
    it already saw, the previous result is reused instead of re-running the
    pass.  In particular a pass known to leave a structure unchanged is
    skipped outright on that structure — the common case in the later rounds
    of a converged script.  The returned AIG (and the recorded trace) are
    identical to what the unmemoised loop would produce.
    """
    passes = SynthesisEffort.passes(effort)
    best = aig.compact()
    if trace is not None:
        trace.append(("strash", best.num_ands))
    current = best
    current_key = _aig_structure_key(current)
    # pass name -> (input structure key, output AIG, output structure key)
    last_run: Dict[str, Tuple[Tuple, Aig, Tuple]] = {}
    _TELEMETRY.count("synth", "runs")
    for _ in range(max_rounds):
        round_start = best.num_ands
        for pass_name in passes:
            before = current.num_ands
            memo = last_run.get(pass_name)
            if memo is not None and memo[0] == current_key:
                current, current_key = memo[1], memo[2]
            else:
                current = _apply_pass(current, pass_name)
                produced_key = _aig_structure_key(current)
                last_run[pass_name] = (current_key, current, produced_key)
                current_key = produced_key
                _TELEMETRY.count("synth", "passes_executed")
            _TELEMETRY.count("synth", "passes_scheduled")
            _TELEMETRY.count("synth", f"gain.{pass_name}", before - current.num_ands)
            if trace is not None:
                trace.append((pass_name, current.num_ands))
            if current.num_ands < best.num_ands:
                best = current
        if best.num_ands >= round_start:
            break
    return best


def synthesize(
    function: BoolFunction,
    library: Optional[CellLibrary] = None,
    effort: str = SynthesisEffort.STANDARD,
    max_rounds: int = 2,
    name: Optional[str] = None,
) -> SynthesisResult:
    """Synthesise a multi-output function into a mapped standard-cell netlist."""
    library = library or standard_cell_library()
    trace: List[Tuple[str, int]] = []
    initial = aig_from_function(function, name=name)
    optimized = optimize_aig(initial, effort=effort, max_rounds=max_rounds, trace=trace)
    netlist = map_to_cells(optimized, library, name=name or function.name)
    telemetry = RunTelemetry(label="synthesize")
    telemetry.record("synth", "passes_scheduled", max(len(trace) - 1, 0))
    telemetry.record("synth", "and_initial", initial.num_ands)
    telemetry.record("synth", "and_final", optimized.num_ands)
    return SynthesisResult(
        aig=optimized,
        netlist=netlist,
        area=netlist.area(),
        and_count=optimized.num_ands,
        pass_trace=trace,
        telemetry=telemetry,
    )
