"""Absolute pins of synthesis outputs.

The byte-identity tests elsewhere compare two loops that call the same
passes, so they cannot notice a pass or the cell mapper changing its
result.  These tests compare against a committed fixture instead
(``golden_synthesis.jsonl``, one JSON object per case):

* ``synthesize`` at every effort level: area, AND count, pass trace, and
  digests of the optimised AIG's structure and of the netlist's instances;
* every registered pass applied once to each strashed input;
* the four areas of the quick-profile PRESENT x2 row of Table I.

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
from repro.sboxes import des_sboxes, optimal_sboxes, present_sbox
from repro.synth import synthesize
from repro.synth.script import _aig_structure_key

FIXTURE = Path(__file__).with_name("golden_synthesis.jsonl")
EFFORTS = ("fast", "standard", "high")


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
        result = synthesize(function, effort=effort, scheduler="fixed")
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


def table1_record() -> dict:
    row = run_table1_entry("PRESENT", 2, profile=get_profile("quick"), seed=1, jobs=1).row
    return {
        "random_avg": row.random_avg,
        "random_best": row.random_best,
        "ga_area": row.ga_area,
        "ga_tm_area": row.ga_tm_area,
    }


def golden_lines() -> Iterator[str]:
    """Every fixture line, in fixture order."""
    for name, function in golden_inputs():
        for record in synthesis_records(function):
            yield json.dumps({"case": f"synthesize/{name}", **record})
    for name, function in golden_inputs():
        for record in pass_records(function):
            yield json.dumps({"case": f"pass/{name}", **record})
    yield json.dumps({"case": "table1/PRESENTx2", **table1_record()})


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
    expected.add("table1/PRESENTx2")
    assert set(_pinned()) == expected


@pytest.mark.parametrize("name", INPUT_NAMES)
def test_synthesize_matches_fixture(name):
    assert list(synthesis_records(_function(name))) == _pinned()[f"synthesize/{name}"]


@pytest.mark.parametrize("name", INPUT_NAMES)
def test_each_pass_matches_fixture(name):
    assert list(pass_records(_function(name))) == _pinned()[f"pass/{name}"]


def test_table1_present2_row_matches_fixture():
    assert [table1_record()] == _pinned()["table1/PRESENTx2"]


if __name__ == "__main__":
    for fixture_line in golden_lines():
        print(fixture_line)
