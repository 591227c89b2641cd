"""Unit tests for the SAT-based adversary (decamouflaging oracle)."""

import pytest

from repro.attacks import PlausibleFunctionOracle
from repro.camo import camouflage_cell
from repro.logic import BoolFunction, TruthTable
from repro.netlist import Netlist, standard_cell_library
from repro.sboxes import optimal_sboxes


@pytest.fixture
def tiny_camo_netlist(library):
    """One camouflaged NAND2: plausible behaviours are NAND, ~a, ~b, 0, 1."""
    camo_nand = camouflage_cell(library["NAND2"])
    from repro.camo import CamouflageLibrary

    camo_library = CamouflageLibrary([camo_nand])
    merged = camo_library.as_cell_library(include=library)
    netlist = Netlist("tiny", merged)
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.add_output("y")
    netlist.add_instance("CAMO_NAND2", [a, b], output="y", name="u_camo")
    plausible = {"u_camo": list(camo_nand.plausible)}
    return netlist, plausible


class TestOracleOnTinyCircuit:
    def test_plausible_candidates(self, tiny_camo_netlist):
        netlist, plausible = tiny_camo_netlist
        oracle = PlausibleFunctionOracle(netlist, plausible)
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        for table in (~(a & b), ~a, ~b, TruthTable.constant(2, True), TruthTable.constant(2, False)):
            candidate = BoolFunction([table], name="candidate")
            result = oracle.is_plausible(candidate)
            assert result.plausible
            assert result.witness["u_camo"] == table

    def test_implausible_candidates(self, tiny_camo_netlist):
        netlist, plausible = tiny_camo_netlist
        oracle = PlausibleFunctionOracle(netlist, plausible)
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        for table in (a, b, a & b, a ^ b):
            assert not oracle.is_plausible(BoolFunction([table]))

    def test_interface_validation(self, tiny_camo_netlist):
        netlist, plausible = tiny_camo_netlist
        oracle = PlausibleFunctionOracle(netlist, plausible)
        with pytest.raises(ValueError):
            oracle.is_plausible(BoolFunction([TruthTable.variable(0, 3)]))
        with pytest.raises(ValueError):
            oracle.is_plausible(
                BoolFunction([TruthTable.variable(0, 2), TruthTable.variable(1, 2)])
            )

    def test_empty_plausible_set_rejected(self, tiny_camo_netlist):
        netlist, _ = tiny_camo_netlist
        with pytest.raises(ValueError):
            PlausibleFunctionOracle(netlist, {"u_camo": []})

    def test_any_interpretation_search(self, tiny_camo_netlist):
        netlist, plausible = tiny_camo_netlist
        oracle = PlausibleFunctionOracle(netlist, plausible)
        a = TruthTable.variable(0, 2)
        # ~a is plausible as-is; a is not plausible under any input relabelling
        # either (the family contains no positive projection).
        assert oracle.is_plausible_under_any_interpretation(BoolFunction([~a]))
        assert not oracle.is_plausible_under_any_interpretation(BoolFunction([a]))

    def test_max_permutations_cap(self, tiny_camo_netlist):
        netlist, plausible = tiny_camo_netlist
        oracle = PlausibleFunctionOracle(netlist, plausible)
        a = TruthTable.variable(0, 2)
        result = oracle.is_plausible_under_any_interpretation(
            BoolFunction([~a]), max_permutations=0
        )
        assert not result.plausible


class TestIncrementalOracle:
    def test_queries_share_one_persistent_solver(self, tiny_camo_netlist):
        # prefilter=False: this test pins the solver call count, which the
        # simulation pre-filter would legitimately reduce.
        netlist, plausible = tiny_camo_netlist
        oracle = PlausibleFunctionOracle(netlist, plausible, prefilter=False)
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        oracle.is_plausible(BoolFunction([~a]))
        solver = oracle._solver
        assert solver is not None
        vars_after_first = solver.num_vars
        oracle.is_plausible(BoolFunction([~(a & b)]))
        oracle.is_plausible(BoolFunction([a]))
        # Same solver, same encoding: plain queries never grow the formula.
        assert oracle._solver is solver
        assert solver.num_vars == vars_after_first
        assert solver.solve_calls == 3
        assert oracle.solver_stats()["solve_calls"] == 3

    def test_verdicts_stable_across_interleaved_queries(self, tiny_camo_netlist):
        # Assumption-based queries must not contaminate one another.
        netlist, plausible = tiny_camo_netlist
        oracle = PlausibleFunctionOracle(netlist, plausible)
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        for _ in range(3):
            assert oracle.is_plausible(BoolFunction([~a]))
            assert not oracle.is_plausible(BoolFunction([a]))
            assert oracle.is_plausible(BoolFunction([~(a & b)]))
            assert not oracle.is_plausible(BoolFunction([a ^ b]))

    def test_enumerate_witnesses(self, tiny_camo_netlist):
        netlist, plausible = tiny_camo_netlist
        oracle = PlausibleFunctionOracle(netlist, plausible)
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        # Exactly one plausible behaviour realises each candidate here.
        witnesses = oracle.enumerate_witnesses(BoolFunction([~a]))
        assert [w["u_camo"] for w in witnesses] == [~a]
        assert oracle.enumerate_witnesses(BoolFunction([a])) == []
        # The blocking clauses of a finished enumeration are retired: later
        # queries and enumerations see the full configuration space again.
        assert oracle.is_plausible(BoolFunction([~a]))
        again = oracle.enumerate_witnesses(BoolFunction([~a]))
        assert [w["u_camo"] for w in again] == [~a]
        # A limit caps the enumeration.
        assert len(oracle.enumerate_witnesses(BoolFunction([~(a & b)]), limit=1)) == 1


class TestOracleOnObfuscatedDesign:
    def test_both_viable_functions_plausible(self, small_obfuscation):
        mapping = small_obfuscation.mapping
        views = small_obfuscation.assignment.apply(small_obfuscation.viable_functions)
        oracle = PlausibleFunctionOracle.from_mapping(mapping)
        outcome = oracle.is_plausible(views[1])
        assert outcome.plausible
        # The witness configuration must cover every camouflaged instance.
        assert set(outcome.witness) == set(mapping.camouflaged_instances())

    def test_unrelated_function_not_plausible(self, small_obfuscation):
        # A third S-box that was never merged should (virtually always) be
        # implausible under the designer's pin view.
        other = optimal_sboxes(3)[2]
        view = other  # identity interpretation
        oracle = PlausibleFunctionOracle.from_mapping(small_obfuscation.mapping)
        result = oracle.is_plausible(view)
        assert not result.plausible
