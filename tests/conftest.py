"""Shared fixtures for the test suite.

Expensive artefacts (synthesised netlists, obfuscation runs) are produced
once per session and reused by the integration tests, keeping the suite
fast while still exercising the real flow.
"""

from __future__ import annotations

import random

import pytest

from repro.camo import default_camouflage_library
from repro.flow import obfuscate, obfuscate_with_assignment
from repro.ga import GAParameters
from repro.merge import merge_functions
from repro.netlist import standard_cell_library
from repro.sboxes import des_sboxes, optimal_sboxes, present_sbox
from repro.synth import synthesize
from repro.techmap import camouflage_map


@pytest.fixture(scope="session")
def library():
    """The default standard-cell library."""
    return standard_cell_library()


@pytest.fixture(scope="session")
def camo_library(library):
    """The default camouflage library."""
    return default_camouflage_library(library)


@pytest.fixture(scope="session")
def present():
    """The PRESENT S-box as a BoolFunction."""
    return present_sbox()


@pytest.fixture(scope="session")
def two_sboxes():
    """Two optimal 4-bit S-boxes (the smallest merged workload)."""
    return optimal_sboxes(2)


@pytest.fixture(scope="session")
def four_sboxes():
    """Four optimal 4-bit S-boxes."""
    return optimal_sboxes(4)


@pytest.fixture(scope="session")
def des_pair():
    """Two DES S-boxes."""
    return des_sboxes(2)


@pytest.fixture(scope="session")
def present_netlist(present, library):
    """A synthesised netlist of the PRESENT S-box."""
    return synthesize(present, library=library).netlist


@pytest.fixture(scope="session")
def merged_two(two_sboxes):
    """The merged design of two S-boxes under the identity assignment."""
    return merge_functions(two_sboxes)


@pytest.fixture(scope="session")
def merged_two_synthesis(merged_two, library):
    """Synthesis result of the two-S-box merged design."""
    return synthesize(merged_two.function, library=library, effort="fast")


@pytest.fixture(scope="session")
def camo_mapping_two(merged_two, merged_two_synthesis, camo_library):
    """Phase III mapping of the two-S-box merged design."""
    select_nets = [f"sel[{k}]" for k in range(merged_two.num_selects)]
    return camouflage_map(
        merged_two_synthesis.netlist, select_nets, camo_library=camo_library
    )


@pytest.fixture(scope="session")
def small_obfuscation(two_sboxes):
    """A full (tiny-budget) obfuscation run used by the integration tests."""
    return obfuscate(
        two_sboxes,
        ga_parameters=GAParameters(population_size=4, generations=2, seed=1),
        fitness_effort="fast",
        final_effort="fast",
    )


@pytest.fixture(autouse=True)
def no_store_or_budget(monkeypatch):
    """Run every test without the developer's synthesis store or solve budget.

    A store warmed by earlier runs changes the synthesis counters that
    payloads record, and a solve budget can make an oracle, equivalence
    check or attack stop short.  Tests that need either set
    ``REPRO_CACHE_DIR``, ``REPRO_CACHE_URL`` or ``REPRO_SOLVE_BUDGET``
    themselves.
    """
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_URL", raising=False)
    monkeypatch.delenv("REPRO_SOLVE_BUDGET", raising=False)


@pytest.fixture
def four_cpus(monkeypatch):
    """Report four CPUs, so that ``jobs`` of 2-4 start real worker
    processes on any host (a killed worker must never be pytest itself)."""
    import repro.parallel as parallel_module

    monkeypatch.setattr(parallel_module, "available_cpus", lambda: 4)


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return random.Random(12345)


@pytest.fixture
def make_random_netlist(library):
    """Factory fixture for deterministic random netlists."""
    from repro.netlist.generate import random_netlist

    def _make(seed, **kwargs):
        return random_netlist(seed, library, **kwargs)

    return _make
