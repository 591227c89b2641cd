"""Reproduction of "Design Automation for Obfuscated Circuits with Multiple
Viable Functions" (Keshavarz, Paar, Holcomb -- DATE 2017).

The package is organised as a small EDA flow:

* :mod:`repro.logic`, :mod:`repro.netlist`, :mod:`repro.aig`, :mod:`repro.synth`
  -- the synthesis substrate (truth tables, netlists, AIG optimisation,
  technology mapping to a GE-weighted standard-cell library);
* :mod:`repro.camo` -- dopant-programmable camouflaged cells and their
  plausible-function families;
* :mod:`repro.merge`, :mod:`repro.ga` -- Phase I (multi-function merging) and
  Phase II (genetic-algorithm pin-assignment optimisation);
* :mod:`repro.techmap` -- Phase III (tree covering with camouflaged cells);
* :mod:`repro.sat`, :mod:`repro.attacks` -- the adversary model: a CDCL SAT
  solver and the viable-function plausibility tests;
* :mod:`repro.sim` -- packed word-parallel simulation (pattern batches,
  netlist/AIG engines, fuzz-before-SAT pre-filters);
* :mod:`repro.sboxes` -- the PRESENT, optimal 4-bit, DES, and AES-style
  S-box workloads;
* :mod:`repro.scenarios` -- the workload registry (pluggable families) and
  the resumable campaign runner;
* :mod:`repro.telemetry` -- the unified run-telemetry record that carries
  every layer's counters across processes and files;
* :mod:`repro.flow`, :mod:`repro.evaluation` -- the end-to-end obfuscation flow
  and the Table I / Figure 4 experiment harnesses.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

from .flow.obfuscate import ObfuscationResult, obfuscate, obfuscate_with_assignment
from .ga.engine import GAParameters
from .logic.boolfunc import BoolFunction
from .logic.truthtable import TruthTable
from .merge.merged import MergedDesign, merge_functions
from .merge.pinassign import PinAssignment
from .netlist.library import standard_cell_library
from .camo.library import default_camouflage_library
from .sboxes.aes import aes_sboxes
from .sboxes.des import des_sboxes
from .sboxes.optimal4 import optimal_sboxes
from .sboxes.present import present_sbox
from .scenarios import CampaignSpec, build_workload, run_campaign
from .synth.script import synthesize
from .techmap.mapper import camouflage_map
from .telemetry import RunTelemetry

__all__ = [
    "__version__",
    "TruthTable",
    "BoolFunction",
    "PinAssignment",
    "MergedDesign",
    "merge_functions",
    "GAParameters",
    "standard_cell_library",
    "default_camouflage_library",
    "synthesize",
    "camouflage_map",
    "obfuscate",
    "obfuscate_with_assignment",
    "ObfuscationResult",
    "present_sbox",
    "optimal_sboxes",
    "des_sboxes",
    "aes_sboxes",
    "build_workload",
    "CampaignSpec",
    "run_campaign",
    "RunTelemetry",
]
