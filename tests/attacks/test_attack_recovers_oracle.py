"""A successful attack recovers the oracle's function, on generated inputs.

The oracle-guided attack queries a chip configured for one select word and
reports success once a single function survives its observations.  On small
seeded random workloads, this test checks the recovered lookup table against
the viable function the merged design assigns to that select word, which the
attack never computes, and simulates the recovered configuration of the
camouflaged cells to the same table.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.oracle_guided import attack_mapping
from repro.flow.obfuscate import obfuscate_with_assignment
from repro.netlist.simulate import extract_function
from repro.scenarios.registry import RandomFamily


@given(
    num_inputs=st.integers(min_value=2, max_value=4),
    num_outputs=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
def test_successful_attack_recovers_the_oracle(
    num_inputs, num_outputs, count, seed, data
):
    functions = RandomFamily().build(
        count, num_inputs=num_inputs, num_outputs=num_outputs, seed=seed
    ).functions
    result = obfuscate_with_assignment(functions, effort="fast")
    design, mapping = result.merged_design, result.mapping
    true_select = data.draw(
        st.integers(min_value=0, max_value=(1 << design.num_selects) - 1),
        label="true_select",
    )
    presample = data.draw(st.sampled_from([0, None]), label="presample")

    outcome = attack_mapping(
        mapping, true_select, max_queries=256, presample=presample
    )

    expected = design.function_for_select(true_select).lookup_table()
    assert outcome.success
    assert outcome.recovered_function == expected
    assert (
        extract_function(
            mapping.netlist, cell_functions=outcome.configuration
        ).lookup_table()
        == expected
    )
