"""A stitched windowed design equals the original, on generated netlists.

``obfuscate_netlist`` cuts a netlist into bounded-input windows, runs the
full flow on each window with its own decoy viable functions, and stitches
the camouflaged windows back together.  On small seeded random netlists,
under both window partitions, this test requires the flow's own checks to
pass (every per-window proof and the whole-netlist SAT miter) and then
compares the two designs exhaustively: the stitched netlist, configured
with the true per-window functions, must compute exactly the original's
truth table.  That comparison does not depend on the miter.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.target import obfuscate_netlist
from repro.ga.engine import GAParameters
from repro.netlist.generate import random_netlist
from repro.netlist.simulate import extract_function
from repro.netlist.window import WINDOWING_NAMES

TINY_GA = GAParameters(population_size=4, generations=1)


@given(
    num_inputs=st.integers(min_value=6, max_value=12),
    deep=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    windowing=st.sampled_from(WINDOWING_NAMES),
    # 4 is the widest cell arity of the library, the smallest legal bound.
    max_window_inputs=st.integers(min_value=4, max_value=6),
    decoys=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_stitched_design_equals_original(
    num_inputs, deep, seed, windowing, max_window_inputs, decoys
):
    original = random_netlist(
        seed,
        num_inputs=num_inputs,
        num_cells=2 * num_inputs,
        depth_bias=num_inputs if deep else None,
    )
    result = obfuscate_netlist(
        original,
        max_window_inputs=max_window_inputs,
        decoys_per_window=decoys,
        ga_parameters=TINY_GA,
        seed=seed,
        sat_check=True,
        windowing=windowing,
    )
    assert result.verification.sat_ok is True
    assert all(result.verification.windows_ok)
    assert extract_function(original) == extract_function(
        result.netlist, cell_functions=result.true_configuration
    )
