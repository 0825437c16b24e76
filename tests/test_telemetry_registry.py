"""Tests for the telemetry instruments and registry."""

import json
import math

import pytest

from repro.telemetry import (
    Counter,
    DEFAULT_DURATION_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.5, 10.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(13.5)
        assert hist.minimum == 0.5
        assert hist.maximum == 10.0
        # (le, cumulative) pairs: values <= 1 / <= 2 / <= 5 / +Inf.
        assert hist.cumulative_buckets() == [
            (1.0, 1), (2.0, 3), (5.0, 3), (math.inf, 4),
        ]

    def test_boundary_value_falls_in_its_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0)  # le="1" is an inclusive upper bound
        assert hist.cumulative_buckets()[0] == (1.0, 1)

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_unsorted_or_duplicate_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))


class TestRegistryFactories:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", "hits")
        b = registry.counter("hits_total")
        assert a is b

    def test_label_values_create_distinct_series(self):
        registry = MetricsRegistry()
        wheel = registry.histogram("dur_seconds", strategy="wheel")
        scan = registry.histogram("dur_seconds", strategy="scan")
        assert wheel is not scan
        assert registry.get("dur_seconds", strategy="wheel") is wheel

    def test_label_order_is_not_part_of_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("c", x="1", y="2")
        b = registry.counter("c", y="2", x="1")
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(ValueError):
            registry.gauge("metric")

    def test_kind_conflict_rejected_after_repeat_lookups(self):
        registry = MetricsRegistry()
        for _ in range(3):
            registry.counter("metric", "help", unit="x")
        with pytest.raises(ValueError):
            registry.gauge("metric", "help", unit="x")

    def test_equal_but_differently_typed_label_values_stay_distinct(self):
        """``True == 1``, but the label values render as "True" and "1"."""
        registry = MetricsRegistry()
        flagged = [registry.counter("c", "help", v=True) for _ in range(2)]
        numbered = [registry.counter("c", "help", v=1) for _ in range(2)]
        assert flagged[0] is flagged[1]
        assert numbered[0] is numbered[1]
        assert flagged[0] is not numbered[0]
        assert numbered[0].labels == (("v", "1"),)

    def test_help_given_later_fills_the_family(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total")
        b = registry.counter("c_total", "what it counts")
        assert a is b
        assert "# HELP c_total what it counts" in registry.render_prometheus()

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad-name")

    def test_invalid_label_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c", **{"bad-label": "v"})

    def test_families_in_creation_order(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.gauge("a_current")
        assert registry.families() == ["b_total", "a_current"]

    def test_value_shortcut(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="x").inc(7)
        assert registry.value("c", kind="x") == 7
        assert registry.value("c", kind="missing") is None
        assert registry.get("never_created") is None


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Total hits", route="/a").inc(3)
        registry.gauge("depth", "Queue depth").set(2.5)
        text = registry.render_prometheus()
        assert "# HELP hits_total Total hits" in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{route="/a"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.render_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 5.05" in text
        assert "lat_seconds_count 2" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='say "hi"\n').inc()
        text = registry.render_prometheus()
        assert 'path="say \\"hi\\"\\n"' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestJsonExport:
    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "count").inc(2)
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        parsed = json.loads(registry.render_json())
        assert parsed == registry.snapshot()
        by_name = {f["name"]: f for f in parsed["metrics"]}
        assert by_name["c_total"]["type"] == "counter"
        assert by_name["c_total"]["series"][0]["value"] == 2
        hist = by_name["h_seconds"]["series"][0]
        assert hist["count"] == 1
        assert hist["buckets"][-1]["le"] == "+Inf"

    def test_default_duration_buckets_are_increasing(self):
        assert list(DEFAULT_DURATION_BUCKETS) == sorted(DEFAULT_DURATION_BUCKETS)


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NullRegistry().enabled is False
        assert MetricsRegistry().enabled is True
        assert NULL_REGISTRY.enabled is False

    def test_instruments_are_shared_no_ops(self):
        registry = NullRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        hist = registry.histogram("h")
        assert counter is gauge is hist
        counter.inc(5)
        gauge.set(3)
        hist.observe(1.0)
        assert counter.value == 0
