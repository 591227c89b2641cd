"""Integration tests: the full three-phase flow on real workloads."""

import pytest

from repro.attacks import verify_viable_functions
from repro.camo.cells import CAMO_PREFIX
from repro.flow import obfuscate, obfuscate_with_assignment
from repro.ga import GAParameters
from repro.netlist import extract_function, validate_netlist
from repro.sboxes import des_sboxes, optimal_sboxes


class TestObfuscateWithAssignment:
    def test_two_present_sboxes(self, two_sboxes):
        result = obfuscate_with_assignment(two_sboxes, effort="fast")
        assert result.verification.all_realisable
        assert validate_netlist(result.netlist) == []
        assert result.camouflaged_area <= result.synthesized_area + 1e-9
        assert all(inst.cell.startswith(CAMO_PREFIX) for inst in result.netlist.instances)
        assert "viable functions : 2" in result.summary()

    def test_final_netlist_has_no_select_inputs(self, two_sboxes):
        result = obfuscate_with_assignment(two_sboxes, effort="fast")
        assert result.netlist.primary_inputs == ["i[0]", "i[1]", "i[2]", "i[3]"]
        assert result.netlist.primary_outputs == ["o[0]", "o[1]", "o[2]", "o[3]"]

    def test_realised_functions_match_viable_set(self, two_sboxes):
        result = obfuscate_with_assignment(two_sboxes, effort="fast")
        views = result.assignment.apply(two_sboxes)
        for select, view in enumerate(views):
            config = result.mapping.configuration_for_select(select)
            realised = extract_function(
                result.netlist, cell_functions=config.as_cell_functions()
            )
            assert realised.lookup_table() == view.lookup_table()

    def test_des_pair(self, des_pair):
        result = obfuscate_with_assignment(des_pair, effort="fast")
        assert result.verification.all_realisable
        assert result.netlist.primary_inputs == [f"i[{k}]" for k in range(6)]

    def test_verify_flag_skips_checks(self, two_sboxes):
        result = obfuscate_with_assignment(two_sboxes, effort="fast", verify=False)
        assert result.verification.total == 2
        assert result.verification.realised == []

    def test_empty_functions_rejected(self):
        with pytest.raises(ValueError):
            obfuscate_with_assignment([])
        with pytest.raises(ValueError):
            obfuscate([])


class TestFullFlowWithGa:
    def test_small_full_run(self, small_obfuscation, two_sboxes):
        result = small_obfuscation
        assert result.verification.all_realisable
        assert result.pin_optimization is not None
        assert result.pin_optimization.evaluations >= 4
        # The final mapped area must beat (or match) the naive identity flow.
        identity = obfuscate_with_assignment(two_sboxes, effort="fast")
        assert result.camouflaged_area <= identity.camouflaged_area + 1e-9
        assert "GA evaluations" in result.summary()

    def test_four_sbox_flow(self, four_sboxes):
        result = obfuscate(
            four_sboxes,
            ga_parameters=GAParameters(population_size=4, generations=1, seed=3),
            fitness_effort="fast",
            final_effort="fast",
        )
        assert result.verification.all_realisable
        assert result.merged_design.num_selects == 2
        report = verify_viable_functions(result.mapping, result.merged_design)
        assert report.all_realisable
