"""Workload registry: pluggable viable-function families for the flows.

The paper's evaluation hard-wires two workloads (4-bit optimal "PRESENT-
style" S-boxes and the DES S-boxes).  The registry generalises that to a
catalogue of *workload families*, each able to build a :class:`Workload` —
a named bundle of viable :class:`~repro.logic.boolfunc.BoolFunction`\\ s of
a common width, optionally carrying reference netlists — so the experiment
harnesses, the campaign runner, and the CLI can sweep any registered family
without code changes.

Built-in families:

``PRESENT``
    The 16 optimal 4-bit S-boxes (:mod:`repro.sboxes.optimal4`).
``DES``
    The eight 6x4 DES S-boxes (:mod:`repro.sboxes.des`).
``AES``
    Sixteen AES-style 8-bit S-boxes — the canonical AES S-box plus pinned
    affine-constant variants (:mod:`repro.sboxes.aes`), the wide workload
    the word-parallel engines unlocked.
``RANDOM``
    Seeded random balanced functions of configurable width — the
    unstructured stress workload (``num_inputs`` / ``num_outputs`` /
    ``seed`` parameters).
``BLIF``
    Functions extracted from structural BLIF netlists (``paths``
    parameter), with the parsed netlists kept as references — the bridge
    for external circuits.

Families registered here are automatically available to
:func:`repro.evaluation.workloads.workload_functions`, the Table I /
Figure 4 harnesses, the campaign runner, and the ``campaign`` CLI.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.boolfunc import BoolFunction
from ..logic.truthtable import TruthTable
from ..netlist.netlist import Netlist
from ..sboxes.aes import NUM_AES_SBOXES, aes_sboxes
from ..sboxes.des import NUM_DES_SBOXES, des_sboxes
from ..sboxes.optimal4 import optimal_sboxes

__all__ = [
    "Workload",
    "WorkloadFamily",
    "WorkloadError",
    "register_family",
    "get_family",
    "available_families",
    "build_workload",
    "workload_functions",
    "PresentFamily",
    "DesFamily",
    "AesFamily",
    "RandomFamily",
    "BlifFamily",
    "BLIF_EXTRACT_LIMIT",
]


class WorkloadError(ValueError):
    """Raised for unknown families or unbuildable workload requests."""


@dataclass(frozen=True)
class Workload:
    """A resolved workload: what one experiment obfuscates.

    Two shapes exist:

    * **function workloads** — the classic case: viable
      :class:`~repro.logic.boolfunc.BoolFunction`\\ s sharing one width
      (validated at construction), optionally with ``reference_netlists``
      aligned to them;
    * **netlist workloads** — wide circuits kept as first-class
      :class:`~repro.netlist.netlist.Netlist` objects with *no* extracted
      functions (``functions`` empty): truth tables would be exponential in
      the input count, so these workloads flow through the windowed netlist
      pipeline (:func:`repro.flow.obfuscate_netlist`) instead of the
      function pipeline.
    """

    name: str
    family: str
    functions: Tuple[BoolFunction, ...]
    reference_netlists: Tuple[Netlist, ...] = ()

    def __post_init__(self):
        if not self.functions and not self.reference_netlists:
            raise WorkloadError(
                f"workload {self.name!r} has neither functions nor netlists"
            )
        if self.functions:
            widths = {(f.num_inputs, f.num_outputs) for f in self.functions}
            if len(widths) != 1:
                raise WorkloadError(
                    f"workload {self.name!r} mixes function widths: {sorted(widths)}"
                )
            if self.reference_netlists and len(self.reference_netlists) != len(
                self.functions
            ):
                raise WorkloadError(
                    f"workload {self.name!r} has {len(self.reference_netlists)} "
                    f"reference netlists for {len(self.functions)} functions"
                )

    @property
    def is_netlist_only(self) -> bool:
        """True for netlist workloads (no exact functions were extracted)."""
        return not self.functions

    @property
    def num_inputs(self) -> int:
        """Input width (of the functions, else of the first netlist)."""
        if self.functions:
            return self.functions[0].num_inputs
        return len(self.reference_netlists[0].primary_inputs)

    @property
    def num_outputs(self) -> int:
        """Output width (of the functions, else of the first netlist)."""
        if self.functions:
            return self.functions[0].num_outputs
        return len(self.reference_netlists[0].primary_outputs)

    @property
    def count(self) -> int:
        """Number of viable functions (or netlists, for netlist workloads)."""
        return len(self.functions) or len(self.reference_netlists)

    def lookup_tables(self) -> List[List[int]]:
        """Word-level lookup tables of every function (for artifacts/tests).

        Netlist workloads raise: materialising ``2**n``-entry tables is the
        exact exponential step they exist to avoid.
        """
        if self.is_netlist_only:
            raise WorkloadError(
                f"workload {self.name!r} is netlist-only; lookup tables would "
                f"be exponential in {self.num_inputs} inputs"
            )
        return [function.lookup_table() for function in self.functions]


class WorkloadFamily(ABC):
    """A named, parameterised source of workloads."""

    #: Registry key (canonically upper-case).
    name: str = ""
    #: One-line description shown by the CLI.
    description: str = ""
    #: Largest supported ``count`` (None = unbounded).
    max_count: Optional[int] = None

    @abstractmethod
    def build(self, count: int, **params) -> Workload:
        """Build a workload of ``count`` viable functions."""

    def check_count(self, count: int) -> None:
        if count < 1:
            raise WorkloadError(f"{self.name}: count must be at least 1")
        if self.max_count is not None and count > self.max_count:
            raise WorkloadError(
                f"{self.name}: count {count} exceeds the family maximum "
                f"({self.max_count})"
            )

    @staticmethod
    def _reject_params(params: dict, allowed: Sequence[str] = ()) -> None:
        unknown = set(params) - set(allowed)
        if unknown:
            raise WorkloadError(f"unknown workload parameters: {sorted(unknown)}")


class PresentFamily(WorkloadFamily):
    """The paper's PRESENT-style workload: optimal 4-bit S-boxes."""

    name = "PRESENT"
    description = "optimal 4-bit S-boxes (PRESENT-style, 4x4)"
    max_count = 16

    def build(self, count: int, **params) -> Workload:
        self._reject_params(params)
        self.check_count(count)
        return Workload(
            name=f"PRESENT_x{count}",
            family=self.name,
            functions=tuple(optimal_sboxes(count)),
        )


class DesFamily(WorkloadFamily):
    """The paper's DES workload: 6x4 S-boxes from FIPS 46-3."""

    name = "DES"
    description = "DES S-boxes (6x4)"
    max_count = NUM_DES_SBOXES

    def build(self, count: int, **params) -> Workload:
        self._reject_params(params)
        self.check_count(count)
        return Workload(
            name=f"DES_x{count}",
            family=self.name,
            functions=tuple(des_sboxes(count)),
        )


class AesFamily(WorkloadFamily):
    """AES-style 8-bit S-boxes: the wide workload (8x8, 2^8 words)."""

    name = "AES"
    description = "AES-style 8-bit S-boxes (8x8, affine-constant variants)"
    max_count = NUM_AES_SBOXES

    def build(self, count: int, **params) -> Workload:
        self._reject_params(params)
        self.check_count(count)
        return Workload(
            name=f"AES_x{count}",
            family=self.name,
            functions=tuple(aes_sboxes(count)),
        )


class RandomFamily(WorkloadFamily):
    """Seeded random balanced functions of configurable width."""

    name = "RANDOM"
    description = "seeded random functions (num_inputs/num_outputs/seed params)"
    max_count = None

    DEFAULT_NUM_INPUTS = 6
    DEFAULT_NUM_OUTPUTS = 4

    def build(self, count: int, **params) -> Workload:
        self._reject_params(params, ("num_inputs", "num_outputs", "seed"))
        self.check_count(count)
        num_inputs = int(params.get("num_inputs", self.DEFAULT_NUM_INPUTS))
        num_outputs = int(params.get("num_outputs", self.DEFAULT_NUM_OUTPUTS))
        seed = int(params.get("seed", 2017))
        if num_inputs < 1 or num_outputs < 1:
            raise WorkloadError(f"{self.name}: widths must be positive")
        rng = random.Random(seed)
        rows = 1 << num_inputs
        # Distinct balanced functions available at this width; a request past
        # the space (tiny widths) must fail loudly, not spin in the dedup loop.
        capacity = math.comb(rows, rows // 2) ** num_outputs
        if count > capacity:
            raise WorkloadError(
                f"{self.name}: only {capacity} distinct balanced "
                f"{num_inputs}x{num_outputs} functions exist; count {count} "
                f"is unsatisfiable"
            )
        functions = []
        seen = set()
        for index in range(count):
            while True:
                # Balanced per-output tables: a random permutation of an
                # exactly half-ones column keeps the workload non-degenerate.
                tables = []
                for _ in range(num_outputs):
                    column = [1] * (rows // 2) + [0] * (rows - rows // 2)
                    rng.shuffle(column)
                    bits = 0
                    for row, value in enumerate(column):
                        if value:
                            bits |= 1 << row
                    tables.append(TruthTable(num_inputs, bits))
                key = tuple(table.bits for table in tables)
                if key not in seen:
                    seen.add(key)
                    break
            functions.append(
                BoolFunction(
                    tables, name=f"rand{num_inputs}x{num_outputs}_s{seed}_{index}"
                )
            )
        return Workload(
            name=f"RANDOM_x{count}_{num_inputs}x{num_outputs}_s{seed}",
            family=self.name,
            functions=tuple(functions),
        )


#: BLIF netlists with more primary inputs than this stay netlist workloads:
#: exhaustive truth-table extraction is exponential in the input count, so
#: wide circuits flow through the windowed netlist pipeline instead.
BLIF_EXTRACT_LIMIT = 16


class BlifFamily(WorkloadFamily):
    """Workloads imported from structural BLIF netlists (``paths`` param).

    Circuits whose input count is at most ``extract_limit`` (default
    :data:`BLIF_EXTRACT_LIMIT`) are extracted into exact viable functions,
    exactly as before.  Wider circuits are kept as first-class netlist
    workloads — no truth table is ever built — and are obfuscated through
    the windowed pipeline (:func:`repro.flow.obfuscate_netlist`).
    """

    name = "BLIF"
    description = (
        "BLIF netlists (paths param); wide circuits stay netlist workloads"
    )
    max_count = None

    def build(self, count: int, **params) -> Workload:
        from ..netlist.blif import read_blif
        from ..netlist.library import standard_cell_library
        from ..netlist.simulate import extract_function

        self._reject_params(params, ("paths", "library", "extract_limit"))
        self.check_count(count)
        paths = params.get("paths")
        if not paths:
            raise WorkloadError(f"{self.name}: the 'paths' parameter is required")
        if isinstance(paths, str):
            paths = [part for part in paths.split(",") if part]
        if len(paths) != count:
            raise WorkloadError(
                f"{self.name}: {len(paths)} BLIF paths for count {count}"
            )
        extract_limit = int(params.get("extract_limit", BLIF_EXTRACT_LIMIT))
        library = params.get("library") or standard_cell_library()
        netlists: List[Netlist] = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                netlist = read_blif(handle.read(), library)
            netlists.append(netlist)
        wide = [
            netlist
            for netlist in netlists
            if len(netlist.primary_inputs) > extract_limit
        ]
        if wide:
            # One wide circuit makes the whole workload netlist-first: mixed
            # widths could not form a valid function workload anyway, and the
            # netlist path handles narrow members just as well.
            return Workload(
                name=f"BLIF_x{count}",
                family=self.name,
                functions=(),
                reference_netlists=tuple(netlists),
            )
        functions = tuple(
            extract_function(netlist, name=netlist.name) for netlist in netlists
        )
        return Workload(
            name=f"BLIF_x{count}",
            family=self.name,
            functions=functions,
            reference_netlists=tuple(netlists),
        )


_REGISTRY: Dict[str, WorkloadFamily] = {}


def register_family(family: WorkloadFamily, replace: bool = False) -> WorkloadFamily:
    """Register a family under its (upper-cased) name."""
    key = family.name.upper()
    if not key:
        raise WorkloadError("a workload family needs a non-empty name")
    if key in _REGISTRY and not replace:
        raise WorkloadError(f"workload family {key!r} is already registered")
    _REGISTRY[key] = family
    return family


def get_family(name: str) -> WorkloadFamily:
    """Look up a registered family by (case-insensitive) name."""
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        raise WorkloadError(
            f"unknown workload family {name!r}; available: {available_families()}"
        ) from None


def available_families() -> List[str]:
    """Sorted names of every registered family."""
    return sorted(_REGISTRY)


def build_workload(family: str, count: int, **params) -> Workload:
    """Build a workload from a registered family."""
    return get_family(family).build(count, **params)


def workload_functions(family: str, count: int, **params) -> List[BoolFunction]:
    """The viable functions of one workload configuration.

    This is the registry-backed successor of the ad-hoc table that used to
    live in :mod:`repro.evaluation.workloads`; that module re-exports it, so
    existing callers keep working unchanged.  Netlist-only workloads (wide
    BLIF circuits) have no extracted functions and raise — pass their
    ``reference_netlists`` to :func:`repro.flow.obfuscate_netlist` instead.
    """
    workload = build_workload(family, count, **params)
    if workload.is_netlist_only:
        raise WorkloadError(
            f"workload {workload.name!r} is netlist-only ({workload.num_inputs} "
            f"inputs); obfuscate its reference netlists with obfuscate_netlist"
        )
    return list(workload.functions)


for _family in (PresentFamily(), DesFamily(), AesFamily(), RandomFamily(), BlifFamily()):
    register_family(_family)
