"""Metrics-registry tests: determinism, merge semantics, segregation."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
    strip_wall_fields,
)


def registry_with(counters=(), gauges=(), observations=(), wall=()):
    reg = MetricsRegistry()
    for name, n in counters:
        reg.counter(name, n)
    for name, v in gauges:
        reg.gauge_max(name, v)
    for name, v in observations:
        reg.observe(name, v)
    for name, v in wall:
        reg.wall(name, v)
    return reg


class TestRegistry:
    def test_counters_accumulate(self):
        reg = registry_with(counters=[("a", 1), ("a", 2), ("b", 5)])
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 3, "b": 5}

    def test_gauge_keeps_max(self):
        reg = registry_with(gauges=[("g", 3.0), ("g", 7.0), ("g", 5.0)])
        assert reg.snapshot()["gauges"] == {"g": 7.0}

    def test_histogram_buckets(self):
        reg = registry_with(observations=[("h", 1), ("h", 3), ("h", 10**9)])
        hist = reg.snapshot()["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["sum"] == 4 + 10**9
        # 1 lands in the <=1 bucket, 3 in <=4, the huge value in +inf.
        assert hist["counts"][0] == 1
        assert hist["counts"][-1] == 1
        assert sum(hist["counts"]) == 3

    def test_wall_is_segregated(self):
        reg = registry_with(counters=[("c", 1)], wall=[("w", 0.5)])
        reg.observe_time("t", 0.01)
        snap = reg.snapshot()
        assert snap["wall"]["sums"] == {"w": 0.5}
        assert snap["wall"]["histograms"]["t"]["count"] == 1
        assert snap["wall"]["histograms"]["t"]["bounds"] == list(
            DEFAULT_TIME_BUCKETS
        )
        stripped = strip_wall_fields(snap)
        assert "wall" not in stripped
        assert stripped["counters"] == {"c": 1}

    def test_snapshot_keys_sorted(self):
        reg = registry_with(counters=[("z", 1), ("a", 1), ("m", 1)])
        assert list(reg.snapshot()["counters"]) == ["a", "m", "z"]

    def test_null_metrics_is_inert(self):
        # An observer without a registry drops every metric call.
        from repro.obs import Observer

        null = Observer()
        assert null.metrics is None
        null.counter("x")
        null.gauge_max("g", 1)
        null.observe("h", 2)
        null.wall("w", 0.1)
        null.observe_time("t", 0.1)


class TestMerge:
    def test_counters_sum_gauges_max(self):
        a = registry_with(counters=[("c", 2)], gauges=[("g", 5.0)]).snapshot()
        b = registry_with(counters=[("c", 3)], gauges=[("g", 9.0)]).snapshot()
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"c": 5}
        assert merged["gauges"] == {"g": 9.0}

    def test_histograms_sum_per_bucket(self):
        a = registry_with(observations=[("h", 1), ("h", 2)]).snapshot()
        b = registry_with(observations=[("h", 2), ("h", 100)]).snapshot()
        merged = merge_snapshots([a, b])
        hist = merged["histograms"]["h"]
        assert hist["count"] == 4
        assert hist["sum"] == 105
        assert sum(hist["counts"]) == 4

    def test_merge_order_independent(self):
        snaps = [
            registry_with(counters=[("c", i)], gauges=[("g", float(i))],
                          observations=[("h", i)]).snapshot()
            for i in range(1, 5)
        ]
        forward = merge_snapshots(snaps)
        backward = merge_snapshots(list(reversed(snaps)))
        assert forward == backward

    def test_bucket_mismatch_rejected(self):
        a = MetricsRegistry()
        a.observe("h", 1, buckets=(1, 2, 3))
        b = MetricsRegistry()
        b.observe("h", 1, buckets=(10, 20))
        with pytest.raises(ValueError, match="bucket boundaries differ"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_wall_merges_but_stays_segregated(self):
        a = registry_with(wall=[("w", 1.0)]).snapshot()
        b = registry_with(wall=[("w", 2.5)]).snapshot()
        merged = merge_snapshots([a, b])
        assert merged["wall"]["sums"] == {"w": 3.5}
        assert strip_wall_fields(merged) == strip_wall_fields(
            merge_snapshots([b, a])
        )


class TestQuantile:
    def test_median_of_uniform(self):
        reg = MetricsRegistry()
        for v in (1, 2, 3, 4):
            reg.observe("h", v)
        hist = reg.snapshot()["histograms"]["h"]
        assert histogram_quantile(hist, 0.5) == 2

    def test_empty(self):
        reg = MetricsRegistry()
        reg.observe("h", 1)
        hist = dict(reg.snapshot()["histograms"]["h"], count=0)
        assert histogram_quantile(hist, 0.5) == 0.0
