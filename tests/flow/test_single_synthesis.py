"""The GA winner is synthesised once per obfuscation.

Phase II's last step synthesises the winning pin assignment at the final
effort; Phase III maps that synthesis, and a Table I row maps the same
one, so no flow synthesises the winner a second time.
"""

import dataclasses

from repro.evaluation.workloads import get_profile
from repro.flow import obfuscate
from repro.ga import GAParameters
from repro.scenarios.campaign import CampaignSpec, run_campaign
from repro.synth.script import synthesis_telemetry

#: The quick profile cut to one short GA generation.
SMALL_PROFILE = dataclasses.replace(get_profile("quick"), ga_population=4, ga_generations=1)


def _synthesis_runs() -> int:
    return synthesis_telemetry().get("synth", "runs")


def test_phase_three_maps_the_phase_two_synthesis(two_sboxes):
    result = obfuscate(
        two_sboxes, ga_parameters=GAParameters(population_size=4, generations=1, seed=3)
    )
    assert result.synthesis is result.pin_optimization.synthesis
    assert result.merged_design is result.pin_optimization.merged_design


def test_one_obfuscation_synthesises_each_evaluation_and_the_winner(two_sboxes):
    before = _synthesis_runs()
    result = obfuscate(
        two_sboxes,
        ga_parameters=GAParameters(population_size=4, generations=1, seed=5),
        final_effort="fast",
    )
    assert _synthesis_runs() - before == result.pin_optimization.evaluations + 1


def test_table1_row_records_one_synthesis_of_the_winner():
    (result,) = run_campaign(CampaignSpec.table1(SMALL_PROFILE, [("PRESENT", 2)])).results
    assert result.ok
    # Four GA evaluations, four random samples and the winner.
    assert result.payload["ga_evaluations"] == 4
    assert result.payload["telemetry"]["scopes"]["synth"]["runs"] == 9
