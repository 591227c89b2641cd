"""Unit tests for the service wire protocol (identity, SSE, normalisers)."""

import csv
import io
import json

import pytest

from repro.scenarios.campaign import (
    CampaignJob,
    CampaignResult,
    CampaignSpec,
    JobResult,
    run_campaign,
)
from repro.service.protocol import (
    cache_fingerprint,
    campaign_fingerprint,
    canonical_json,
    normalized_artifact_csv,
    normalized_artifact_json,
    parse_sse,
    sse_event,
)


def probe_spec(count=3, name="proto"):
    return CampaignSpec(
        name=name,
        jobs=[
            CampaignJob(f"probe_{index}", "probe", {"value": index})
            for index in range(count)
        ],
    )


class TestFingerprints:
    def test_campaign_fingerprint_is_deterministic(self):
        spec = probe_spec()
        first = campaign_fingerprint(spec.to_dict())
        second = campaign_fingerprint(probe_spec().to_dict())
        assert first == second
        assert first.startswith("c")
        assert len(first) == 13

    def test_campaign_fingerprint_ignores_key_order(self):
        """Submitters serialising the same spec differently still dedupe."""
        data = probe_spec().to_dict()
        shuffled = json.loads(canonical_json(data))
        reordered = {key: shuffled[key] for key in reversed(list(shuffled))}
        assert campaign_fingerprint(data) == campaign_fingerprint(reordered)

    def test_different_specs_get_different_campaigns(self):
        base = campaign_fingerprint(probe_spec().to_dict())
        assert campaign_fingerprint(probe_spec(count=4).to_dict()) != base
        assert campaign_fingerprint(probe_spec(name="other").to_dict()) != base

    def test_cache_fingerprint_is_a_pure_function_of_the_key(self):
        first = cache_fingerprint("fast", "lib", (4, 0x1234))
        assert cache_fingerprint("fast", "lib", [4, 0x1234]) == first
        assert cache_fingerprint("best", "lib", (4, 0x1234)) != first
        assert cache_fingerprint("fast", "other", (4, 0x1234)) != first
        assert cache_fingerprint("fast", "lib", (4, 0x1235)) != first
        assert len(first) == 32


class TestSse:
    def test_round_trip(self):
        frames = sse_event("claim", {"job": "a", "owner": "w1"}) + sse_event(
            "done", {"job": "a"}
        )
        events = list(parse_sse(iter(frames.split(b"\n"))))
        # splitlines drops the terminators; re-add empties via split("\n").
        assert events == [
            ("claim", {"job": "a", "owner": "w1"}),
            ("done", {"job": "a"}),
        ]

    def test_keepalive_comments_are_skipped(self):
        stream = (
            b": keepalive\n\n"
            + sse_event("snapshot", {"jobs": {}})
            + b": keepalive\n\n"
        )
        events = list(parse_sse(iter(stream.split(b"\n"))))
        assert events == [("snapshot", {"jobs": {}})]

    def test_garbage_data_is_dropped_not_raised(self):
        stream = b"event: broken\ndata: {not json\n\n" + sse_event(
            "ok", {"x": 1}
        )
        events = list(parse_sse(iter(stream.split(b"\n"))))
        assert events == [("ok", {"x": 1})]


class TestArtifactNormalisation:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_campaign(probe_spec())

    def test_json_zeroes_only_timing_and_provenance(self, outcome):
        normalized = json.loads(normalized_artifact_json(outcome.to_json()))
        assert normalized["total_seconds"] == 0.0
        assert normalized["robustness"] == {}
        assert normalized["jobs"] == 0
        assert set(normalized["job_seconds"].values()) <= {0.0}
        for row in normalized["results"]:
            assert row["seconds"] == 0.0
            assert row["cached"] is False
        # The payloads — the actual results — survive untouched.
        original = json.loads(outcome.to_json())
        assert [row["payload"] for row in normalized["results"]] == [
            row["payload"] for row in original["results"]
        ]

    def test_normalisation_is_idempotent(self, outcome):
        once = normalized_artifact_json(outcome.to_json())
        assert normalized_artifact_json(once) == once

    def test_csv_zeroes_seconds_and_cached_columns(self, outcome):
        normalized = normalized_artifact_csv(outcome.to_csv())
        header = normalized.splitlines()[0].split(",")
        seconds_column = header.index("seconds")
        cached_column = header.index("cached")
        for line in normalized.splitlines()[1:]:
            cells = line.split(",")
            assert cells[seconds_column] == "0"
            assert cells[cached_column] == "0"
        # Unquoted rows render line for line, without a trailing newline.
        assert normalized == "\n".join(normalized.splitlines())

    def test_csv_keeps_a_multi_line_cell_whole(self):
        blif = ".model w\n.inputs a b\n.end\n"
        outcome = CampaignResult(
            name="windowed",
            results=[
                JobResult(
                    job_id="window_000",
                    kind="window_obfuscate",
                    status="ok",
                    seconds=1.25,
                    cached=True,
                    payload={"index": 0, "camo_blif": blif},
                )
            ],
            total_seconds=1.25,
        )
        normalized = normalized_artifact_csv(outcome.to_csv())
        header, row = csv.reader(io.StringIO(normalized))
        assert row[header.index("seconds")] == "0"
        assert row[header.index("cached")] == "0"
        assert row[header.index("camo_blif")] == blif
        assert normalized_artifact_csv(normalized) == normalized
