"""Unit tests for the designer-side plausibility verification."""

import pytest

from repro.attacks import verify_viable_functions
from repro.logic import TruthTable


class TestVerifyViableFunctions:
    def test_mapping_passes_exhaustive_check(self, camo_mapping_two, merged_two):
        report = verify_viable_functions(camo_mapping_two, merged_two)
        assert report.all_realisable
        assert report.total == 2
        assert report.realised == [0, 1]
        assert report.failed == []
        assert "OK" in report.summary()

    def test_corrupted_configuration_is_detected(self, camo_mapping_two, merged_two):
        # Sabotage one instance's configuration table and check the report
        # notices that some select value no longer realises its function.
        victim = camo_mapping_two.camouflaged_instances()[0]
        original = dict(camo_mapping_two.instance_configs[victim])
        try:
            num_pins = camo_mapping_two.netlist.library[
                camo_mapping_two.netlist.instance(victim).cell
            ].num_inputs
            corrupted = {
                key: TruthTable.constant(num_pins, True) for key in original
            }
            camo_mapping_two.instance_configs[victim] = corrupted
            report = verify_viable_functions(camo_mapping_two, merged_two)
            assert not report.all_realisable
            assert report.failed
            assert "FAILED" in report.summary()
        finally:
            camo_mapping_two.instance_configs[victim] = original

    def test_report_details_recorded_on_failure(self, camo_mapping_two, merged_two):
        victim = camo_mapping_two.camouflaged_instances()[-1]
        original = dict(camo_mapping_two.instance_configs[victim])
        try:
            num_pins = camo_mapping_two.netlist.library[
                camo_mapping_two.netlist.instance(victim).cell
            ].num_inputs
            camo_mapping_two.instance_configs[victim] = {
                key: TruthTable.constant(num_pins, False) for key in original
            }
            report = verify_viable_functions(camo_mapping_two, merged_two)
            if report.failed:
                assert all(select in report.details for select in report.failed)
        finally:
            camo_mapping_two.instance_configs[victim] = original
