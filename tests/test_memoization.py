"""Correctness of the cross-call memoisation layers added for the parallel
synthesis engine: cached results must be indistinguishable from fresh
computation."""

from __future__ import annotations

import pytest

from repro._bitops import popcount
from repro.aig.build import aig_from_function
from repro.aig.opt import clear_factored_form_cache, factored_form_cache_size
from repro.sboxes import optimal_sboxes, present_sbox
from repro.synth.script import SynthesisEffort, _apply_pass, optimize_aig, synthesize
from repro.techmap.absfunc import clear_subtree_function_cache, subtree_output_function
from repro.techmap.trees import decompose_into_trees


class TestPopcount:
    def test_matches_bin_count(self):
        for value in [0, 1, 2, 3, 255, 1 << 40, (1 << 70) - 1, 0xDEADBEEF]:
            assert popcount(value) == bin(value).count("1")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            popcount(-1)


class TestFactoredFormCache:
    def test_cache_populates_and_synthesis_is_reproducible(self):
        clear_factored_form_cache()
        first = synthesize(present_sbox(), effort="standard")
        assert factored_form_cache_size() > 0
        second = synthesize(present_sbox(), effort="standard")
        assert first.area == second.area
        assert first.and_count == second.and_count
        assert first.pass_trace == second.pass_trace


class TestOptimizeAigPassSkipping:
    @pytest.mark.parametrize("effort", ["fast", "standard", "high"])
    def test_matches_unmemoised_reference(self, effort):
        """The per-pass fixed-point skip must reproduce the naive loop
        exactly: same best AIG, same trace."""
        function = present_sbox()

        trace = []
        optimized = optimize_aig(
            aig_from_function(function), effort=effort, max_rounds=3, trace=trace
        )

        # Reference: the pre-memoisation loop, re-implemented verbatim.
        passes = SynthesisEffort.passes(effort)
        best = aig_from_function(function).compact()
        reference_trace = [("strash", best.num_ands)]
        current = best
        for _ in range(3):
            round_start = best.num_ands
            for pass_name in passes:
                current = _apply_pass(current, pass_name)
                reference_trace.append((pass_name, current.num_ands))
                if current.num_ands < best.num_ands:
                    best = current
            if best.num_ands >= round_start:
                break

        assert trace == reference_trace
        assert optimized.num_ands == best.num_ands
        assert optimized.output_tables() == best.output_tables()

    def test_preserves_function(self):
        function = present_sbox()
        optimized = optimize_aig(aig_from_function(function), effort="standard")
        assert optimized.to_bool_function().outputs == function.outputs


class TestSubtreeFunctionMemo:
    def test_cold_and_warm_results_agree(self):
        design_netlist = synthesize(optimal_sboxes(1)[0], effort="fast").netlist
        trees = decompose_into_trees(design_netlist)
        assert trees, "expected at least one tree"

        clear_subtree_function_cache()
        observations = []
        for tree in trees:
            for instance in tree.instances:
                leaves = [net for net in instance.inputs]
                table = subtree_output_function(
                    design_netlist, [instance], instance.output, leaves
                )
                observations.append((instance.output, leaves, table.bits, table.num_vars))

        for output_net, leaves, bits, num_vars in observations:
            instance = design_netlist.instance(
                design_netlist.driver_of(output_net).name
            )
            table = subtree_output_function(
                design_netlist, [instance], output_net, leaves
            )
            assert (table.bits, table.num_vars) == (bits, num_vars)

    def test_output_net_must_be_produced(self):
        design_netlist = synthesize(optimal_sboxes(1)[0], effort="fast").netlist
        instance = next(iter(design_netlist.topological_order()))
        with pytest.raises(ValueError):
            subtree_output_function(
                design_netlist, [instance], "no_such_net", list(instance.inputs)
            )
