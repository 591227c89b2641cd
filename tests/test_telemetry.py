"""Tests for the unified run-telemetry record."""

import json

import pytest

from repro.telemetry import RunTelemetry


class TestAccumulation:
    def test_count_and_record(self):
        telemetry = RunTelemetry(label="t")
        telemetry.count("solver", "conflicts", 3)
        telemetry.count("solver", "conflicts", 2)
        telemetry.record("solver", "num_vars", 40)
        telemetry.record("solver", "num_vars", 50)
        assert telemetry.get("solver", "conflicts") == 5
        assert telemetry.get("solver", "num_vars") == 50
        assert telemetry.get("missing", "key", default=-1) == -1

    def test_absorb_skips_non_numbers_and_bools(self):
        telemetry = RunTelemetry().absorb(
            "s", {"a": 1, "b": 2.5, "flag": True, "name": "x", "items": [1]}
        )
        assert telemetry.scopes == {"s": {"a": 1, "b": 2.5}}


class TestMergeAndRoundTrip:
    def test_merged_sums_counters_and_unions_scopes(self):
        one = RunTelemetry(label="one")
        one.count("solver", "conflicts", 4)
        one.count("cache", "hits", 1)
        two = RunTelemetry(label="two")
        two.count("solver", "conflicts", 6)
        two.count("window", "decoys", 2)
        merged = one.merged(two)
        assert merged.label == "one"
        assert merged.get("solver", "conflicts") == 10
        assert merged.get("cache", "hits") == 1
        assert merged.get("window", "decoys") == 2
        # Operands are untouched.
        assert one.get("solver", "conflicts") == 4

    def test_merged_label_override(self):
        assert RunTelemetry(label="a").merged(label="b").label == "b"

    def test_json_round_trip(self):
        telemetry = RunTelemetry(label="roundtrip")
        telemetry.count("synth", "passes_executed", 7)
        telemetry.record("synth", "and_final", 31)
        text = json.dumps(telemetry.to_dict())
        restored = RunTelemetry.from_dict(json.loads(text))
        assert restored.label == telemetry.label
        assert restored.scopes == telemetry.scopes
        # The persisted form is plain JSON (artifact-diff friendly).
        assert json.loads(text)["scopes"]["synth"]["and_final"] == 31

    def test_from_dict_rejects_malformed_scopes(self):
        with pytest.raises(ValueError):
            RunTelemetry.from_dict({"scopes": [1, 2]})
        with pytest.raises(ValueError):
            RunTelemetry.from_dict({"scopes": {"solver": 7}})

