"""Unit tests for miter-based equivalence checking."""

import pytest

from repro.logic import BoolFunction, TruthTable
from repro.netlist import Netlist, standard_cell_library
from repro.sat import (
    EquivalenceChecker,
    check_netlist_equivalence,
    check_netlist_function,
)
from repro.synth import synthesize


@pytest.fixture
def and_netlist(library):
    netlist = Netlist("and", library)
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.add_output("y")
    netlist.add_instance("AND2", [a, b], output="y")
    return netlist


@pytest.fixture
def nand_inv_netlist(library):
    """AND built as INV(NAND(a,b)) — structurally different, same function."""
    netlist = Netlist("and2", library)
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.add_output("y")
    nand = netlist.add_instance("NAND2", [a, b]).output
    netlist.add_instance("INV", [nand], output="y")
    return netlist


class TestNetlistEquivalence:
    def test_equivalent_structures(self, and_netlist, nand_inv_netlist):
        assert check_netlist_equivalence(and_netlist, nand_inv_netlist)

    def test_inequivalent_structures(self, and_netlist, library):
        or_netlist = Netlist("or", library)
        a = or_netlist.add_input("a")
        b = or_netlist.add_input("b")
        or_netlist.add_output("y")
        or_netlist.add_instance("OR2", [a, b], output="y")
        result = check_netlist_equivalence(and_netlist, or_netlist)
        assert not result
        assert result.counterexample is not None
        # The counterexample must actually distinguish AND from OR.
        values = list(result.counterexample.values())
        assert sum(values) == 1

    def test_interface_mismatch(self, and_netlist, library):
        wide = Netlist("wide", library)
        for name in ("a", "b", "c"):
            wide.add_input(name)
        wide.add_output("y")
        wide.add_instance("AND3", ["a", "b", "c"], output="y")
        with pytest.raises(ValueError):
            check_netlist_equivalence(and_netlist, wide)

    def test_cell_function_overrides(self, and_netlist, nand_inv_netlist):
        # Configure the AND2 instance as constant zero: no longer equivalent.
        instance = and_netlist.instances[0]
        override = {instance.name: TruthTable.constant(2, False)}
        result = check_netlist_equivalence(
            and_netlist, nand_inv_netlist, cell_functions_a=override
        )
        assert not result

    def test_synthesized_vs_function(self, present, present_netlist):
        assert check_netlist_function(present_netlist, present)

    def test_synthesized_vs_wrong_function(self, present_netlist):
        wrong = BoolFunction.from_lookup([(x + 3) % 16 for x in range(16)], 4, 4)
        result = check_netlist_function(present_netlist, wrong)
        assert not result
        assert set(result.counterexample) == set(present_netlist.primary_inputs)

    def test_function_interface_mismatch(self, present_netlist):
        narrow = BoolFunction.from_lookup([0, 1, 2, 3], 2, 2)
        with pytest.raises(ValueError):
            check_netlist_function(present_netlist, narrow)

    def test_two_independent_synthesis_runs_are_equivalent(self, present, library):
        first = synthesize(present, library=library, effort="fast").netlist
        second = synthesize(present, library=library, effort="high").netlist
        assert check_netlist_equivalence(first, second)


class TestReusableChecker:
    def test_many_candidates_one_solver(self, present, present_netlist):
        # prefilter=False: this test pins the *solver* call count, which the
        # fuzz fast path would legitimately reduce.
        checker = EquivalenceChecker(present_netlist, prefilter=False)
        assert checker.check_function(present)
        for shift in (1, 5, 11):
            wrong = BoolFunction.from_lookup(
                [(x + shift) % 16 for x in range(16)], 4, 4
            )
            result = checker.check_function(wrong)
            assert not result
            assert set(result.counterexample) == set(present_netlist.primary_inputs)
        # The original candidate still checks out after the failed miters
        # were retired — the activation literals isolate the checks.
        assert checker.check_function(present)
        stats = checker.solver_stats()
        assert stats["solve_calls"] == 5

    def test_counterexample_distinguishes(self, and_netlist):
        checker = EquivalenceChecker(and_netlist)
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert checker.check_function(BoolFunction([a & b]))
        result = checker.check_function(BoolFunction([a | b]))
        assert not result
        values = list(result.counterexample.values())
        assert sum(values) == 1

    def test_interface_validation(self, and_netlist):
        checker = EquivalenceChecker(and_netlist)
        with pytest.raises(ValueError):
            checker.check_function(BoolFunction([TruthTable.variable(0, 3)]))
