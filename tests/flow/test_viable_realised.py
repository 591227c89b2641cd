"""Every viable function is realised by its configuration, on generated inputs.

Phase I merges the viable functions behind select inputs, and Phase III maps
the merged design onto camouflaged cells; the designer then configures the
cells for one select word.  On small seeded random workloads, this test
proves by SAT miter that the configuration of every select word implements
the viable function the merged design assigns to it.  It also checks that
the packed sweep behind ``realised_lookup_tables`` gives the same tables
when the select space is split into blocks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
from repro.flow.obfuscate import obfuscate_with_assignment
from repro.sat.equivalence import check_netlist_function
from repro.scenarios.registry import RandomFamily


@given(
    num_inputs=st.integers(min_value=2, max_value=4),
    num_outputs=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
def test_every_viable_function_is_realised(num_inputs, num_outputs, count, seed):
    functions = RandomFamily().build(
        count, num_inputs=num_inputs, num_outputs=num_outputs, seed=seed
    ).functions
    result = obfuscate_with_assignment(functions, effort="fast")
    design, mapping = result.merged_design, result.mapping
    assert result.verification.all_realisable
    for select in range(1 << design.num_selects):
        configuration = mapping.configuration_for_select(select)
        outcome = check_netlist_function(
            mapping.netlist,
            design.function_for_select(select),
            cell_functions=configuration.as_cell_functions(),
            prefilter=False,
        )
        assert outcome, f"select {select}: counterexample {outcome.counterexample}"

    # A limit of num_inputs pins every select per block; num_inputs + 1
    # leaves one select free.  A function-scoped monkeypatch would leak
    # across examples, so each patch gets its own context.
    tables = mapping.realised_lookup_tables()
    for limit in (num_inputs, num_inputs + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "SWEEP_WIDTH_LIMIT", limit)
            assert mapping.realised_lookup_tables() == tables
