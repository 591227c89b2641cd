"""Campaign runner benchmark.

``test_campaign_aes_row`` runs a one-row AES-style campaign (8-bit S-box
workload, tiny GA budget) through the campaign runner — the end-to-end cost
of the scenario subsystem on the wide workload the registry added.
"""

from __future__ import annotations

import dataclasses

from repro.evaluation.workloads import get_profile
from repro.scenarios import CampaignSpec, run_campaign

#: GA budget of the campaign row: deliberately tiny — the benchmark measures
#: the runner and the 8-bit workload, not GA convergence.
CAMPAIGN_POPULATION = 4
CAMPAIGN_GENERATIONS = 1


def _campaign_profile():
    return dataclasses.replace(
        get_profile("quick"),
        ga_population=CAMPAIGN_POPULATION,
        ga_generations=CAMPAIGN_GENERATIONS,
    )


def _run_aes_campaign(jobs):
    spec = CampaignSpec.table1(
        _campaign_profile(), [("AES", 2)], seed=1, name="bench_aes"
    )
    return run_campaign(spec, jobs=jobs)


def test_campaign_aes_row(benchmark, record, bench_json, jobs):
    outcome = benchmark.pedantic(_run_aes_campaign, args=(jobs,), rounds=1, iterations=1)
    assert outcome.all_ok
    entry = outcome.results[0].value
    assert entry.verification_ok
    row = entry.row.as_dict()
    benchmark.extra_info.update(row)
    record(
        "campaign_aes_row",
        "campaign AES x2 row: "
        + ", ".join(f"{key}={value}" for key, value in row.items()),
    )
    bench_json(
        "campaign_aes_row",
        {
            "row": row,
            "campaign": outcome.bench_payload()["campaign"],
            "telemetry": outcome.telemetry().to_dict()["scopes"],
        },
    )
