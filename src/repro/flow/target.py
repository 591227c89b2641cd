"""Windowed obfuscation of wide netlists: no whole-circuit truth table.

The classic flow (:func:`repro.flow.obfuscate.obfuscate`) takes a list of
exact viable functions — fine for S-box-scale blocks, impossible for wide
netlists (truth tables are exponential in the input count).
:func:`obfuscate_netlist` is the netlist entry point: the netlist is
decomposed into bounded-input windows
(:func:`repro.netlist.window.extract_windows`), every window's exact
function is extracted with a window-local exhaustive packed batch, decoy
viable functions are generated per window, each window runs the full
Phase I–III pipeline with its own GA budget, and the camouflaged windows
are stitched back into the parent netlist.

:func:`obfuscate_netlist` runs the windows one after another in memory.
The pooled, resumable path, which ``obfuscate --blif-in`` and ``campaign
--blif`` share, is one ``window_obfuscate`` campaign job per window
(:func:`repro.scenarios.campaign.run_windowed_campaign`).  Both drivers run
:func:`obfuscate_window` per window and :func:`assemble_windowed_result` to
stitch and verify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..camo.library import CamouflageLibrary, default_camouflage_library
from ..ga.engine import GAParameters
from ..logic.boolfunc import BoolFunction
from ..logic.truthtable import TruthTable
from ..netlist.netlist import Netlist
from ..netlist.window import (
    StitchedNetlist,
    Window,
    extract_windows,
    stitch_windows,
    window_subnetlist,
)
from ..synth.script import SynthesisEffort
from ..telemetry import RunTelemetry

__all__ = [
    "WindowRecord",
    "WindowedVerification",
    "WindowedObfuscationResult",
    "decoy_functions",
    "obfuscate_window",
    "obfuscate_netlist",
    "assemble_windowed_result",
    "DEFAULT_WINDOW_GA",
]

#: Default per-window GA budget: windows are small, so a light search per
#: window (times many windows) replaces one heavy search over the whole block.
DEFAULT_WINDOW_GA = GAParameters(population_size=4, generations=2, seed=1)

#: Whole-netlist SAT equivalence is only attempted up to this input count by
#: default; beyond it the per-window exhaustive proofs plus the random packed
#: cross-check carry the verification (each window is proven exhaustively,
#: and equivalence composes window-by-window).
DEFAULT_SAT_CHECK_LIMIT = 24


# ------------------------------------------------------------------ #
# Per-window flow
# ------------------------------------------------------------------ #
def decoy_functions(
    reference: BoolFunction, count: int, seed: int
) -> List[BoolFunction]:
    """Seeded decoy viable functions shaped like ``reference``.

    Each decoy flips two truth-table rows of each output of the reference
    (one row for a 1-input reference), mirroring the paper's workloads where
    the viable set consists of closely related variants (S-box families).
    Staying close to the reference matters for cost, too: the merged
    multi-function circuit then synthesises to roughly the window plus small
    correction logic, instead of the near-worst-case area a random function
    of the same width would force.  Decoys are distinct from the reference
    and from each other.
    """
    if count < 0:
        raise ValueError("decoy count must be non-negative")
    rng = random.Random(seed)
    rows = 1 << reference.num_inputs
    flips = 2 if rows > 2 else 1
    seen = {tuple(table.bits for table in reference.outputs)}
    decoys: List[BoolFunction] = []
    attempts = 0
    while len(decoys) < count:
        attempts += 1
        if attempts > 64 * (count + 1):
            raise ValueError(
                f"could not generate {count} distinct decoys for "
                f"{reference.name!r} (function space too small)"
            )
        tables: List[TruthTable] = []
        for table in reference.outputs:
            bits = table.bits
            for row in rng.sample(range(rows), flips):
                bits ^= 1 << row
            tables.append(TruthTable(reference.num_inputs, bits))
        key = tuple(table.bits for table in tables)
        if key in seen:
            continue
        seen.add(key)
        decoys.append(
            BoolFunction(
                tables, name=f"{reference.name}_decoy{len(decoys)}"
            )
        )
    return decoys


@dataclass
class WindowRecord:
    """The obfuscation outcome of one window.

    ``netlist`` is the camouflaged window (pin-compatible with the window's
    boundary contract); ``true_configuration`` maps its camouflaged
    instances to the configured functions realising the window's *true*
    function (select word 0 — the window function is viable function 0 and
    the first function's pin view is pinned to identity).  ``telemetry``
    carries per-window counters under the ``window`` scope.
    """

    window: Window
    netlist: Netlist
    true_configuration: Dict[str, TruthTable]
    num_viable: int
    synthesized_area: float = 0.0
    camouflaged_area: float = 0.0
    verification_ok: bool = True
    telemetry: Optional[RunTelemetry] = None


def obfuscate_window(
    subnetlist: Netlist,
    window: Window,
    decoys: int = 1,
    seed: int = 1,
    ga_parameters: Optional[GAParameters] = None,
    fitness_effort: str = SynthesisEffort.FAST,
    final_effort: str = SynthesisEffort.FAST,
    verify: bool = True,
) -> WindowRecord:
    """Run the full Phase I–III flow on one window subnetlist.

    The window's exact function (window-local exhaustive packed batch) is
    viable function 0; ``decoys`` seeded decoy functions complete the viable
    set.  Because the first function's pin view is pinned to identity,
    select word 0 realises the window function exactly, and
    ``true_configuration`` captures that configuration of the camouflaged
    cells.

    The window's GA synthesises its fitness in this process: its search
    (population 4 and two generations in a windowed spec) is too small to
    repay starting worker processes, so a windowed campaign parallelises
    across windows instead.
    """
    from ..sim.engine import NetlistSimulator
    from .obfuscate import obfuscate, obfuscate_with_assignment

    function = NetlistSimulator(subnetlist).extract_function()
    viable = [function] + decoy_functions(function, decoys, seed)
    import dataclasses

    parameters = dataclasses.replace(ga_parameters or DEFAULT_WINDOW_GA, seed=seed)
    if len(viable) > 1:
        result = obfuscate(
            viable,
            ga_parameters=parameters,
            fitness_effort=fitness_effort,
            final_effort=final_effort,
            verify=verify,
        )
    else:
        # A single viable function has no pin assignment to search.
        result = obfuscate_with_assignment(
            viable, effort=final_effort, verify=verify
        )
    configuration = result.mapping.configuration_for_select(0)
    true_configuration = dict(configuration.as_cell_functions())
    telemetry = RunTelemetry(label=f"window{window.index}")
    telemetry.record("window", "num_viable", len(viable))
    telemetry.record("window", "decoys", decoys)
    return WindowRecord(
        window=window,
        netlist=result.netlist,
        true_configuration=true_configuration,
        num_viable=len(viable),
        synthesized_area=result.synthesized_area,
        camouflaged_area=result.camouflaged_area,
        # A skipped check is not a failed one: the skip-verify path returns
        # an empty report whose all_realisable is False by construction.
        verification_ok=result.verification.all_realisable if verify else True,
        telemetry=telemetry,
    )


# ------------------------------------------------------------------ #
# Whole-netlist assembly and verification
# ------------------------------------------------------------------ #
@dataclass
class WindowedVerification:
    """Verification evidence for a stitched windowed obfuscation.

    ``windows_ok`` is the per-window designer-side check (exhaustive, hence
    a complete proof per window; window equivalences compose to whole-design
    equivalence).  ``simulation_ok`` is the whole-netlist packed cross-check
    (complete when ``simulation_complete``), ``sat_ok`` the whole-netlist
    miter check (None when skipped for width).
    """

    windows_ok: List[bool] = field(default_factory=list)
    simulation_ok: bool = True
    simulation_complete: bool = False
    simulation_patterns: int = 0
    sat_ok: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """True when every performed check passed."""
        return (
            all(self.windows_ok)
            and self.simulation_ok
            and (self.sat_ok is None or self.sat_ok)
        )

    def summary(self) -> str:
        parts = [
            f"windows {sum(self.windows_ok)}/{len(self.windows_ok)} ok",
            f"packed sim {'ok' if self.simulation_ok else 'FAILED'} "
            f"({'exhaustive' if self.simulation_complete else 'sampled'}, "
            f"{self.simulation_patterns} patterns)",
        ]
        if self.sat_ok is not None:
            parts.append(f"SAT miter {'ok' if self.sat_ok else 'FAILED'}")
        return "; ".join(parts)


@dataclass
class WindowedObfuscationResult:
    """Everything produced by the windowed (netlist-target) flow."""

    original: Netlist
    stitched: StitchedNetlist
    records: List[WindowRecord]
    camo_library: CamouflageLibrary
    true_configuration: Dict[str, TruthTable]
    verification: WindowedVerification

    @property
    def netlist(self) -> Netlist:
        """The stitched camouflaged netlist."""
        return self.stitched.netlist

    @property
    def windows(self) -> Tuple[Window, ...]:
        """The window decomposition that was obfuscated."""
        return self.stitched.windows

    @property
    def camouflaged_area(self) -> float:
        """Area (GE) of the stitched camouflaged netlist."""
        return self.netlist.area()

    def camouflaged_instances(self) -> List[str]:
        """Stitched names of every camouflaged instance."""
        return sorted(self.true_configuration)

    def instance_plausible(self) -> Dict[str, List[TruthTable]]:
        """Adversary view: plausible function family per camouflaged instance."""
        plausible: Dict[str, List[TruthTable]] = {}
        for name in self.true_configuration:
            cell = self.netlist.instance(name).cell
            plausible[name] = list(self.camo_library[cell].plausible)
        return plausible

    def summary(self) -> str:
        """Multi-line human-readable summary of the windowed flow outcome."""
        lines = [
            f"windows          : {len(self.records)} "
            f"(<= {max((w.num_inputs for w in self.windows), default=0)} inputs each)",
            f"original area    : {self.original.area():.1f} GE "
            f"({self.original.num_instances()} cells)",
            f"camouflaged area : {self.camouflaged_area:.1f} GE "
            f"({len(self.true_configuration)} camouflaged cells)",
            f"validation       : {self.verification.summary()}",
        ]
        return "\n".join(lines)


def assemble_windowed_result(
    original: Netlist,
    records: Sequence[WindowRecord],
    verify: bool = True,
    sat_check: Optional[bool] = None,
) -> WindowedObfuscationResult:
    """Stitch per-window records into the parent and verify the result.

    Verification layers (all verdict-preserving):

    * per-window designer checks carried by the records (exhaustive);
    * a whole-netlist packed cross-check of original vs stitched under the
      true configuration — exhaustive (complete) for small input counts,
      1,024 seeded random patterns otherwise;
    * a whole-netlist SAT miter check — by default only attempted up to
      :data:`DEFAULT_SAT_CHECK_LIMIT` inputs (``sat_check`` forces it on or
      off explicitly).
    """
    records = list(records)
    windows = [record.window for record in records]
    stitched = stitch_windows(
        original, windows, [record.netlist for record in records]
    )
    true_configuration = stitched.map_cell_functions(
        [record.true_configuration for record in records]
    )

    verification = WindowedVerification(
        windows_ok=[record.verification_ok for record in records]
    )
    if verify:
        from ..sat.equivalence import check_netlist_equivalence
        from ..sim.prefilter import fuzz_netlist_vs_netlist

        outcome = fuzz_netlist_vs_netlist(
            original,
            stitched.netlist,
            cell_functions_b=true_configuration,
            patterns=1024,
            seed=7,
        )
        verification.simulation_ok = not outcome.refuted
        verification.simulation_complete = outcome.complete
        verification.simulation_patterns = outcome.patterns
        num_inputs = len(original.primary_inputs)
        run_sat = (
            sat_check
            if sat_check is not None
            else num_inputs <= DEFAULT_SAT_CHECK_LIMIT
        )
        if run_sat:
            result = check_netlist_equivalence(
                original,
                stitched.netlist,
                cell_functions_b=true_configuration,
                prefilter=False,
            )
            verification.sat_ok = bool(result)
    return WindowedObfuscationResult(
        original=original,
        stitched=stitched,
        records=records,
        camo_library=default_camouflage_library(original.library),
        true_configuration=true_configuration,
        verification=verification,
    )


def obfuscate_netlist(
    netlist: Netlist,
    max_window_inputs: int = 8,
    max_window_instances: int = 48,
    decoys_per_window: int = 1,
    ga_parameters: Optional[GAParameters] = None,
    seed: int = 1,
    verify: bool = True,
    sat_check: Optional[bool] = None,
    windowing: Optional[str] = None,
) -> WindowedObfuscationResult:
    """Obfuscate a wide netlist window-by-window and stitch the result.

    Every window runs the full Phase I–III pipeline with its own seeded GA
    budget (seed ``seed + window.index``), one window after another in this
    process.  A BLIF circuit on disk can instead run its windows as pooled,
    resumable jobs through
    :func:`repro.scenarios.campaign.run_windowed_campaign`, with identical
    results.

    ``windowing`` names the window partition (``greedy`` by default, or
    ``hardness``; see :func:`repro.netlist.window.extract_windows`).  Every
    window gets ``decoys_per_window`` decoy viable functions.
    """
    windows = extract_windows(
        netlist, max_inputs=max_window_inputs, max_instances=max_window_instances,
        strategy=windowing,
    )
    records = [
        obfuscate_window(
            window_subnetlist(netlist, window),
            window,
            decoys=decoys_per_window,
            seed=seed + window.index,
            ga_parameters=ga_parameters,
            verify=verify,
        )
        for window in windows
    ]
    return assemble_windowed_result(
        netlist, records, verify=verify, sat_check=sat_check
    )
