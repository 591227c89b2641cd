"""Absolute pins of synthesis outputs.

The byte-identity tests elsewhere compare two loops that call the same
passes, so they cannot notice a pass or the cell mapper changing its
result.  These tests compare against a committed fixture instead
(``golden_synthesis.jsonl``, one JSON object per case):

* ``synthesize`` at every effort level: area, AND count, pass trace, and
  digests of the optimised AIG's structure and of the netlist's instances;
* every registered pass applied once to each strashed input;
* the four areas of each quick-profile row of Table I (PRESENT x2, x4 and
  x8, DES x2), plus the Phase III choices behind its last area: the
  camouflaged-cell count and digests of the mapped instances and of their
  configurations;
* every window job of the windowed ``wide30`` campaign that perfbench runs
  (six window inputs, one decoy, seed 1): its camouflaged area and digests
  of its payload's camouflaged BLIF and true configuration.

Regenerate the fixture only after a deliberate change of results::

    PYTHONPATH=src python tests/synth/test_golden.py > tests/synth/golden_synthesis.jsonl
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.aig import aig_from_function
from repro.aig.opt import apply_pass, known_passes
from repro.evaluation.table1 import run_table1_entry
from repro.evaluation.workloads import get_profile
from repro.logic import BoolFunction, TruthTable
from repro.merge import merge_functions
from repro.scenarios.campaign import JOB_KINDS, CampaignSpec
from repro.sboxes import des_sboxes, optimal_sboxes, present_sbox
from repro.synth import synthesize
from repro.synth.script import _aig_structure_key

FIXTURE = Path(__file__).with_name("golden_synthesis.jsonl")
WIDE30_BLIF = Path(__file__).resolve().parents[2] / "examples" / "circuits" / "wide30.blif"
EFFORTS = ("fast", "standard", "high")
#: The rows of the quick-profile Table I sweep, in the paper's order.
TABLE1_ROWS = (("PRESENT", 2), ("PRESENT", 4), ("PRESENT", 8), ("DES", 2))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _random_function(seed: int) -> BoolFunction:
    """A seeded random function of 3-6 inputs and 1-3 outputs."""
    rng = random.Random(seed)
    num_inputs = 3 + seed % 4
    outputs = [
        TruthTable(num_inputs, rng.getrandbits(1 << num_inputs))
        for _ in range(1 + seed % 3)
    ]
    return BoolFunction(outputs, name=f"random{seed}")


def golden_inputs() -> List[Tuple[str, BoolFunction]]:
    """The pinned inputs, by case name."""
    inputs = [
        ("present", present_sbox()),
        ("des1", des_sboxes(1)[0]),
        ("merged_optimal2", merge_functions(optimal_sboxes(2)).function),
    ]
    inputs += [(f"random{seed}", _random_function(seed)) for seed in range(12)]
    return inputs


def synthesis_records(function: BoolFunction) -> Iterator[dict]:
    for effort in EFFORTS:
        result = synthesize(function, effort=effort)
        instances = [
            (instance.name, instance.cell, list(instance.inputs), instance.output)
            for instance in result.netlist.instances
        ]
        yield {
            "effort": effort,
            "area": result.area,
            "and_count": result.and_count,
            "pass_trace": [list(entry) for entry in result.pass_trace],
            "aig": _digest(_aig_structure_key(result.aig)),
            "netlist": _digest(instances),
        }


def pass_records(function: BoolFunction) -> Iterator[dict]:
    strashed = aig_from_function(function).compact()
    for pass_name in known_passes():
        optimised = apply_pass(strashed, pass_name)
        yield {
            "pass": pass_name,
            "and_count": optimised.num_ands,
            "aig": _digest(_aig_structure_key(optimised)),
        }


def table1_record(family: str = "PRESENT", count: int = 2) -> dict:
    entry = run_table1_entry(family, count, profile=get_profile("quick"), seed=1, jobs=1)
    row, mapping = entry.row, entry.obfuscation.mapping
    instances = [
        (instance.name, instance.cell, list(instance.inputs), instance.output)
        for instance in mapping.netlist.instances
    ]
    configs = sorted(
        (name, sorted((select, table.num_vars, table.bits) for select, table in by_select.items()))
        for name, by_select in mapping.instance_configs.items()
    )
    return {
        "random_avg": row.random_avg,
        "random_best": row.random_best,
        "ga_area": row.ga_area,
        "ga_tm_area": row.ga_tm_area,
        "camo_cells": mapping.num_camouflaged_cells(),
        "netlist": _digest(instances),
        "instance_configs": _digest(configs),
    }


def window_records() -> Iterator[dict]:
    spec = CampaignSpec.windowed(str(WIDE30_BLIF), max_window_inputs=6, decoys=1, seed=1)
    for job in spec.jobs:
        _, payload = JOB_KINDS[job.kind](job.params, 1)
        yield {
            "job": job.job_id,
            "camouflaged_area": payload["camouflaged_area"],
            "camo_blif": _digest(payload["camo_blif"]),
            "true_config": _digest(payload["true_config"]),
        }


def golden_lines() -> Iterator[str]:
    """Every fixture line, in fixture order."""
    for name, function in golden_inputs():
        for record in synthesis_records(function):
            yield json.dumps({"case": f"synthesize/{name}", **record})
    for name, function in golden_inputs():
        for record in pass_records(function):
            yield json.dumps({"case": f"pass/{name}", **record})
    for family, count in TABLE1_ROWS:
        yield json.dumps({"case": f"table1/{family}x{count}", **table1_record(family, count)})
    for record in window_records():
        yield json.dumps({"case": "window/wide30", **record})


@lru_cache(maxsize=None)
def _pinned() -> Dict[str, List[dict]]:
    pinned: Dict[str, List[dict]] = {}
    for line in FIXTURE.read_text().splitlines():
        record = json.loads(line)
        pinned.setdefault(record.pop("case"), []).append(record)
    return pinned


INPUT_NAMES = [name for name, _ in golden_inputs()]


def _function(name: str) -> BoolFunction:
    return dict(golden_inputs())[name]


def test_fixture_covers_every_case():
    expected = {f"synthesize/{name}" for name in INPUT_NAMES}
    expected |= {f"pass/{name}" for name in INPUT_NAMES}
    expected |= {f"table1/{family}x{count}" for family, count in TABLE1_ROWS}
    expected |= {"window/wide30"}
    assert set(_pinned()) == expected


@pytest.mark.parametrize("name", INPUT_NAMES)
def test_synthesize_matches_fixture(name):
    assert list(synthesis_records(_function(name))) == _pinned()[f"synthesize/{name}"]


@pytest.mark.parametrize("name", INPUT_NAMES)
def test_each_pass_matches_fixture(name):
    assert list(pass_records(_function(name))) == _pinned()[f"pass/{name}"]


def test_table1_present2_row_matches_fixture():
    assert [table1_record()] == _pinned()["table1/PRESENTx2"]


@pytest.mark.parametrize(
    "family,count", TABLE1_ROWS[1:], ids=[f"{family}x{count}" for family, count in TABLE1_ROWS[1:]]
)
def test_table1_quick_row_matches_fixture(family, count):
    assert [table1_record(family, count)] == _pinned()[f"table1/{family}x{count}"]


def test_wide30_window_jobs_match_fixture():
    assert list(window_records()) == _pinned()["window/wide30"]


if __name__ == "__main__":
    for fixture_line in golden_lines():
        print(fixture_line)
