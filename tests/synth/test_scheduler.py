"""Tests for the synthesis pass loop.

``optimize_aig`` must be byte-identical to the historic loop (frozen here as
a reference reimplementation), and it is property-tested on random
multi-output functions: it never changes the computed function and never
returns more AND nodes than the structurally hashed input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import aig_from_function, aig_from_tables
from repro.logic import BoolFunction, TruthTable
from repro.sboxes import des_sboxes, optimal_sboxes
from repro.synth import SynthesisEffort, optimize_aig, synthesize
from repro.synth.script import _aig_structure_key


def _legacy_optimize_aig(aig, effort="standard", max_rounds=2, trace=None):
    """The ``optimize_aig`` loop without telemetry, frozen as a reference."""
    from repro.aig.opt import apply_pass

    passes = SynthesisEffort.passes(effort)
    best = aig.compact()
    if trace is not None:
        trace.append(("strash", best.num_ands))
    current = best
    current_key = _aig_structure_key(current)
    last_run = {}
    for _ in range(max_rounds):
        round_start = best.num_ands
        for pass_name in passes:
            memo = last_run.get(pass_name)
            if memo is not None and memo[0] == current_key:
                current, current_key = memo[1], memo[2]
            else:
                current = apply_pass(current, pass_name)
                produced_key = _aig_structure_key(current)
                last_run[pass_name] = (current_key, current, produced_key)
                current_key = produced_key
            if trace is not None:
                trace.append((pass_name, current.num_ands))
            if current.num_ands < best.num_ands:
                best = current
        if best.num_ands >= round_start:
            break
    return best


def _workloads():
    functions = [optimal_sboxes(1)[0], des_sboxes(1)[0]]
    # A lopsided multi-output function exercises the zero-gain passes.
    a = TruthTable.variable(0, 4)
    b = TruthTable.variable(1, 4)
    c = TruthTable.variable(2, 4)
    d = TruthTable.variable(3, 4)
    functions.append(
        BoolFunction([(a & b) | (c & d), a ^ b ^ c, ~(a | (b & c & d))], name="mix")
    )
    return functions


class TestFixedSchedulerByteIdentity:
    @pytest.mark.parametrize("effort", ["fast", "standard", "high"])
    def test_trace_and_result_match_legacy_loop(self, effort):
        for function in _workloads():
            aig = aig_from_function(function)
            legacy_trace, new_trace = [], []
            legacy = _legacy_optimize_aig(aig, effort=effort, trace=legacy_trace)
            current = optimize_aig(aig, effort=effort, trace=new_trace)
            assert new_trace == legacy_trace
            assert _aig_structure_key(current) == _aig_structure_key(legacy)


@st.composite
def _output_tables(draw):
    num_inputs = draw(st.integers(min_value=2, max_value=5))
    num_outputs = draw(st.integers(min_value=1, max_value=3))
    bits = st.integers(min_value=0, max_value=(1 << (1 << num_inputs)) - 1)
    return [TruthTable(num_inputs, draw(bits)) for _ in range(num_outputs)]


class TestOptimizeAigProperties:
    @given(_output_tables())
    @settings(max_examples=40, deadline=None)
    def test_function_preserved_and_never_worse_than_strash(self, tables):
        aig = aig_from_tables(tables)
        for effort in ("fast", "standard", "high"):
            optimized = optimize_aig(aig, effort=effort)
            assert optimized.output_tables() == tables
            assert optimized.num_ands <= aig.compact().num_ands


class TestSynthesizeWithScheduler:
    def test_pass_gains_mirror_trace(self, present, library):
        result = synthesize(present, library=library, effort="standard")
        gains = result.pass_gains
        assert len(gains) == len(result.pass_trace) - 1
        counts = [count for _, count in result.pass_trace]
        assert [gain for _, gain in gains] == [
            counts[i] - counts[i + 1] for i in range(len(counts) - 1)
        ]

    def test_result_telemetry_present(self, present, library):
        result = synthesize(present, library=library)
        assert result.telemetry is not None
        assert result.telemetry.get("synth", "passes_scheduled") == len(
            result.pass_trace
        ) - 1
        assert result.telemetry.get("synth", "and_final") == result.and_count
