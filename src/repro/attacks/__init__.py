"""Adversary model: plausibility verification and decamouflaging analyses."""

from .decamouflage import DecamouflageResult, PlausibleFunctionOracle
from .oracle_guided import OracleGuidedAttack, OracleGuidedResult, attack_mapping
from .plausibility import PlausibilityReport, verify_viable_functions
from .random_camo import (
    RandomCamouflagedCircuit,
    RandomCamouflageResult,
    random_camouflage_experiment,
    randomly_camouflage,
)

__all__ = [
    "OracleGuidedAttack",
    "OracleGuidedResult",
    "attack_mapping",
    "PlausibilityReport",
    "verify_viable_functions",
    "DecamouflageResult",
    "PlausibleFunctionOracle",
    "RandomCamouflagedCircuit",
    "RandomCamouflageResult",
    "randomly_camouflage",
    "random_camouflage_experiment",
]
