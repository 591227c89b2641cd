"""Tests for the select-block loop of the camouflage sweep.

Beyond ``SWEEP_WIDTH_LIMIT`` combined (data + select) variables,
``sweep_select_space`` splits the select dimension into blocks that fit
the packed width, one packed pass each.  These tests pin that the block
loop is bit-identical to the single pass by shrinking the limit so both
are cheap to compute.
"""

import pytest

import repro.sim.engine as engine
from repro.camo.config import sweep_configurations
from repro.merge.merged import merge_functions
from repro.sboxes.optimal4 import optimal_sboxes
from repro.sim.engine import sweep_select_space
from repro.synth.script import synthesize
from repro.techmap.mapper import camouflage_map


@pytest.fixture(scope="module")
def mapping_and_width():
    """A Phase III mapping of two merged S-boxes (4 data + 1 select)."""
    design = merge_functions(optimal_sboxes(2))
    synthesis = synthesize(design.function, effort="fast")
    select_nets = [f"sel[{k}]" for k in range(design.num_selects)]
    mapping = camouflage_map(synthesis.netlist, select_nets)
    return mapping, design


class TestShardedSweep:
    def test_width_limit_lifted(self, mapping_and_width, monkeypatch):
        """Widths beyond the packed limit run in blocks instead of raising."""
        mapping, _ = mapping_and_width
        reference = sweep_select_space(
            mapping.netlist,
            mapping.select_order,
            mapping.instance_selects,
            mapping.instance_configs,
        )
        # Shrink the limit below the real combined width (4 data + selects):
        # the sweep must transparently fall over to select blocks.
        monkeypatch.setattr(engine, "SWEEP_WIDTH_LIMIT", 4)
        blocked = sweep_select_space(
            mapping.netlist,
            mapping.select_order,
            mapping.instance_selects,
            mapping.instance_configs,
        )
        assert blocked == reference

    def test_data_width_beyond_limit_still_raises(
        self, mapping_and_width, monkeypatch
    ):
        mapping, _ = mapping_and_width
        monkeypatch.setattr(engine, "SWEEP_WIDTH_LIMIT", 3)  # < 4 data inputs
        with pytest.raises(ValueError, match="data variables"):
            sweep_select_space(
                mapping.netlist,
                mapping.select_order,
                mapping.instance_selects,
                mapping.instance_configs,
            )

    def test_sweep_configurations_delegates(self, mapping_and_width, monkeypatch):
        mapping, design = mapping_and_width
        reference = mapping.realised_lookup_tables()
        monkeypatch.setattr(engine, "SWEEP_WIDTH_LIMIT", 4)
        tables = sweep_configurations(
            mapping.netlist,
            mapping.select_order,
            mapping.instance_selects,
            mapping.instance_configs,
        )
        assert tables == reference
        # And the realised tables still match each configured extraction.
        permuted = design.assignment.apply(list(design.viable_functions))
        for select in range(len(permuted)):
            assert tables[select] == permuted[select].lookup_table()
