"""Unit tests for the metrics registry and Prometheus exposition."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    absorb_telemetry,
    counter,
    registry,
    render_prometheus,
    reset_metrics,
)
from repro.telemetry import RunTelemetry


@pytest.fixture
def fresh():
    return MetricsRegistry()


class TestCounters:
    def test_counter_accumulates(self, fresh):
        fresh.counter("repro_x_total")
        fresh.counter("repro_x_total", 4)
        assert fresh.value("repro_x_total") == 5.0

    def test_labelled_series_are_independent(self, fresh):
        fresh.counter("repro_jobs_total", status="ok")
        fresh.counter("repro_jobs_total", 2, status="failed")
        assert fresh.value("repro_jobs_total", status="ok") == 1.0
        assert fresh.value("repro_jobs_total", status="failed") == 2.0
        assert fresh.value("repro_jobs_total") == 0.0  # unlabelled absent

    def test_gauge_overwrites(self, fresh):
        fresh.gauge("repro_active", 3)
        fresh.gauge("repro_active", 1)
        assert fresh.value("repro_active") == 1.0

    def test_value_absent_is_zero(self, fresh):
        assert fresh.value("repro_never_written") == 0.0


class TestRender:
    def test_counter_and_gauge_text(self, fresh):
        fresh.counter("repro_claims_total", 3, campaign="c1")
        fresh.gauge("repro_campaigns", 2)
        text = fresh.render()
        assert "# TYPE repro_claims_total counter" in text
        assert 'repro_claims_total{campaign="c1"} 3' in text
        assert "# TYPE repro_campaigns gauge" in text
        assert "repro_campaigns 2" in text
        assert text.endswith("\n")

    def test_histogram_cumulative_buckets(self, fresh):
        fresh.observe("repro_seconds", 0.003)
        fresh.observe("repro_seconds", 0.3)
        text = fresh.render()
        assert "# TYPE repro_seconds histogram" in text
        # 0.003 fits every bucket from 0.005 up; 0.3 from 0.5 up — so the
        # cumulative counts step 0, 1, 1, 1, 2 across the default bounds.
        assert 'repro_seconds_bucket{le="0.001"} 0' in text
        assert 'repro_seconds_bucket{le="0.005"} 1' in text
        assert 'repro_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_seconds_bucket{le="0.5"} 2' in text
        assert 'repro_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_seconds_sum 0.303" in text
        assert "repro_seconds_count 2" in text

    def test_custom_buckets(self, fresh):
        fresh.observe("repro_sizes", 7, buckets=(5, 10))
        text = fresh.render()
        assert 'repro_sizes_bucket{le="5"} 0' in text
        assert 'repro_sizes_bucket{le="10"} 1' in text

    def test_empty_registry_renders_empty(self, fresh):
        assert fresh.render() == ""


class TestAbsorbTelemetry:
    def test_scopes_become_prefixed_counters(self, fresh):
        telemetry = RunTelemetry(label="job")
        telemetry.count("solver", "conflicts", 5)
        telemetry.record("cache", "hits", 2)
        telemetry.record("synth", "flag", True)  # bool: skipped
        fresh.absorb_telemetry(telemetry, campaign="c1")
        assert fresh.value("repro_telemetry_solver_conflicts", campaign="c1") == 5.0
        assert fresh.value("repro_telemetry_cache_hits", campaign="c1") == 2.0
        assert "repro_telemetry_synth_flag" not in fresh.render()

    def test_hostile_names_sanitized(self, fresh):
        telemetry = RunTelemetry()
        telemetry.record("so-lver", "dip queries", 1)
        fresh.absorb_telemetry(telemetry)
        assert fresh.value("repro_telemetry_so_lver_dip_queries") == 1.0


class TestSnapshot:
    def test_flat_counter_gauge_view(self, fresh):
        fresh.counter("repro_jobs_total", 2, status="ok")
        fresh.gauge("repro_active", 1)
        snap = fresh.snapshot()
        assert snap["repro_jobs_total"] == {"status=ok": 2.0}
        assert snap["repro_active"] == {"_": 1.0}

    def test_histograms_not_in_snapshot(self, fresh):
        fresh.observe("repro_seconds", 0.1)
        assert "repro_seconds" not in fresh.snapshot()


class TestModuleRegistry:
    def test_default_registry_roundtrip(self):
        reset_metrics()
        try:
            counter("repro_test_only_total", 2)
            assert registry().value("repro_test_only_total") == 2.0
            assert "repro_test_only_total 2" in render_prometheus()
            telemetry = RunTelemetry()
            telemetry.count("ga", "evaluations", 7)
            absorb_telemetry(telemetry)
            assert registry().value("repro_telemetry_ga_evaluations") == 7.0
        finally:
            reset_metrics()
        assert registry().value("repro_test_only_total") == 0.0

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
