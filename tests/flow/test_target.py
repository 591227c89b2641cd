"""Tests for the windowed netlist flow."""

import pytest

from repro.netlist.generate import random_netlist as build_random_netlist
from repro.flow.target import (
    decoy_functions,
    obfuscate_netlist,
    obfuscate_window,
)
from repro.ga.engine import GAParameters
from repro.netlist.simulate import extract_function
from repro.netlist.window import extract_windows, window_function, window_subnetlist


TINY_GA = GAParameters(population_size=4, generations=1, seed=1)


class TestDecoyFunctions:
    def test_distinct_and_shaped(self, present):
        decoys = decoy_functions(present, 3, seed=5)
        assert len(decoys) == 3
        tables = {tuple(t.bits for t in d.outputs) for d in decoys}
        assert len(tables) == 3
        assert tuple(t.bits for t in present.outputs) not in tables
        for decoy in decoys:
            assert decoy.num_inputs == present.num_inputs
            assert decoy.num_outputs == present.num_outputs

    def test_seeded(self, present):
        first = decoy_functions(present, 2, seed=9)
        second = decoy_functions(present, 2, seed=9)
        assert [d.lookup_table() for d in first] == [
            d.lookup_table() for d in second
        ]

    def test_zero_and_negative(self, present):
        assert decoy_functions(present, 0, seed=1) == []
        with pytest.raises(ValueError):
            decoy_functions(present, -1, seed=1)


class TestObfuscateWindow:
    def test_true_configuration_realises_window_function(self, library):
        netlist = build_random_netlist(17, library, num_cells=20)
        window = extract_windows(netlist, max_inputs=5)[0]
        sub = window_subnetlist(netlist, window)
        record = obfuscate_window(
            sub, window, decoys=1, seed=4, ga_parameters=TINY_GA
        )
        assert record.verification_ok
        configured = extract_function(
            record.netlist, cell_functions=record.true_configuration
        )
        assert (
            configured.lookup_table()
            == window_function(netlist, window).lookup_table()
        )

    def test_zero_decoys(self, library):
        netlist = build_random_netlist(17, library, num_cells=20)
        window = extract_windows(netlist, max_inputs=5)[0]
        record = obfuscate_window(
            window_subnetlist(netlist, window), window, decoys=0, seed=4
        )
        assert record.num_viable == 1
        configured = extract_function(
            record.netlist, cell_functions=record.true_configuration
        )
        assert (
            configured.lookup_table()
            == window_function(netlist, window).lookup_table()
        )


class TestObfuscateNetlist:
    def test_stitched_equivalence_small(self, library):
        """10-input circuit: exhaustive packed cross-check plus SAT miter."""
        netlist = build_random_netlist(7, library, num_cells=24)
        result = obfuscate_netlist(
            netlist, max_window_inputs=6, decoys_per_window=1,
            ga_parameters=TINY_GA, seed=3,
        )
        verification = result.verification
        assert all(verification.windows_ok)
        assert verification.simulation_ok and verification.simulation_complete
        assert verification.sat_ok is True
        assert verification.ok
        # The stitched netlist under the true configuration IS the original.
        assert (
            extract_function(
                result.netlist, cell_functions=result.true_configuration
            ).lookup_table()
            == extract_function(netlist).lookup_table()
        )
        # Every camouflaged instance resolves a plausible family.
        plausible = result.instance_plausible()
        assert set(plausible) == set(result.true_configuration)
        for name, family in plausible.items():
            assert result.true_configuration[name] in family

    def test_wide_netlist_never_extracts(self, library):
        """24 inputs: sampled verification, no exhaustive truth table."""
        netlist = build_random_netlist(
            5, library, num_inputs=24, num_cells=18, num_outputs=4
        )
        result = obfuscate_netlist(
            netlist, max_window_inputs=6, decoys_per_window=0, seed=3,
        )
        verification = result.verification
        assert verification.ok
        assert not verification.simulation_complete  # sampled, not 2**24
        assert verification.sat_ok is True  # 24 <= default SAT limit

    def test_verify_false_does_not_mark_windows_failed(self, library):
        """Skipping verification must not read as window failure."""
        netlist = build_random_netlist(13, library, num_cells=12)
        result = obfuscate_netlist(
            netlist, max_window_inputs=6, decoys_per_window=1,
            ga_parameters=TINY_GA, seed=5, verify=False,
        )
        assert all(record.verification_ok for record in result.records)
        assert result.verification.ok
