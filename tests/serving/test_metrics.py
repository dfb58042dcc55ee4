"""The metrics instruments: counters, gauges, reservoirs.

The load-bearing contract is the reservoir's: exact percentiles while
the stream fits in capacity, a uniform sample (seeded, so reproducible)
past it, O(capacity) memory forever, and millisecond-unit summaries —
the numbers the latency gate and the stats op are built on.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    LatencyReservoir,
    MetricsRegistry,
)


# ----------------------------------------------------------------------
# counters and gauges
# ----------------------------------------------------------------------
def test_counter_counts_and_rejects_negative():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 5


def test_gauge_set_and_add():
    gauge = Gauge()
    gauge.set(3)
    gauge.add(-1.5)
    assert gauge.value == 1.5


def test_counter_is_thread_safe():
    counter = Counter()

    def bump():
        for _ in range(1000):
            counter.inc()

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == 8000


# ----------------------------------------------------------------------
# the latency reservoir
# ----------------------------------------------------------------------
def test_reservoir_exact_below_capacity():
    reservoir = LatencyReservoir(capacity=100)
    for ms in range(1, 11):  # 1..10 ms
        reservoir.observe(ms / 1e3)
    summary = reservoir.summary()
    assert summary["count"] == 10
    assert summary["p50_ms"] == pytest.approx(6.0)
    assert summary["p99_ms"] == pytest.approx(10.0)
    assert summary["max_ms"] == pytest.approx(10.0)
    assert summary["mean_ms"] == pytest.approx(5.5)


def test_reservoir_quantile_validates_range():
    reservoir = LatencyReservoir(capacity=4)
    with pytest.raises(ValueError):
        reservoir.quantile(1.5)
    assert reservoir.quantile(0.5) == 0.0  # empty -> 0


def test_reservoir_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        LatencyReservoir(capacity=0)


def test_reservoir_sampling_bounds_memory_and_tracks_stream():
    reservoir = LatencyReservoir(capacity=64, seed=1)
    # A long uniform ramp: the sampled median must land near the true
    # median even though only 64 of 10_000 observations survive.
    for i in range(10_000):
        reservoir.observe(i / 1e3)
    assert reservoir.count == 10_000
    assert len(reservoir._sample) == 64
    true_median_s = 5.0  # 5000 / 1e3 seconds
    assert reservoir.quantile(0.5) == pytest.approx(true_median_s, rel=0.35)
    # max is tracked exactly, outside the sample
    assert reservoir.summary()["max_ms"] == pytest.approx(9999.0)


def test_reservoir_is_deterministic_for_a_replayed_stream():
    def run() -> list[float]:
        reservoir = LatencyReservoir(capacity=32, seed=7)
        for i in range(5_000):
            reservoir.observe((i * 37 % 1000) / 1e3)
        return [reservoir.quantile(q) for q in (0.5, 0.95, 0.99)]

    assert run() == run()


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
def test_registry_create_on_first_touch_is_stable():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.reservoir("r") is registry.reservoir("r")


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.counter("a").inc()
    registry.gauge("depth").set(3)
    registry.reservoir("request").observe(0.004)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "b"]  # sorted
    assert snap["counters"]["b"] == 2
    assert snap["gauges"]["depth"] == 3.0
    assert snap["latency"]["request"]["count"] == 1
    assert snap["latency"]["request"]["p50_ms"] == pytest.approx(4.0)


def test_registry_format_line_mentions_every_instrument():
    registry = MetricsRegistry()
    assert registry.format_line() == "(no metrics yet)"
    registry.counter("served").inc(3)
    registry.reservoir("request").observe(0.010)
    line = registry.format_line()
    assert "served=3" in line
    assert "request[p50=10.0ms" in line


# ----------------------------------------------------------------------
# reservoir edge cases (PR 9): tiny reservoirs, tiny streams
# ----------------------------------------------------------------------
def test_reservoir_empty_summary_is_all_zero():
    reservoir = LatencyReservoir(capacity=8)
    summary = reservoir.summary()
    assert summary == {
        "count": 0,
        "mean_ms": 0.0,
        "max_ms": 0.0,
        "p50_ms": 0.0,
        "p95_ms": 0.0,
        "p99_ms": 0.0,
    }
    for q in (0.0, 0.5, 1.0):
        assert reservoir.quantile(q) == 0.0


def test_reservoir_single_sample_quantiles_all_equal_it():
    reservoir = LatencyReservoir(capacity=8)
    reservoir.observe(0.007)
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert reservoir.quantile(q) == pytest.approx(0.007)
    summary = reservoir.summary()
    assert summary["count"] == 1
    assert summary["p50_ms"] == summary["p99_ms"] == pytest.approx(7.0)
    assert summary["mean_ms"] == pytest.approx(7.0)


def test_reservoir_capacity_one_stays_bounded_with_exact_extremes():
    reservoir = LatencyReservoir(capacity=1, seed=3)
    for i in range(1, 1001):
        reservoir.observe(i / 1e3)
    # Memory bound holds at the degenerate capacity...
    assert len(reservoir._sample) == 1
    # ...while count and max are tracked exactly, outside the sample.
    assert reservoir.count == 1000
    assert reservoir.summary()["max_ms"] == pytest.approx(1000.0)
    # The one resident sample is a real observation from the stream.
    assert reservoir._sample[0] in [i / 1e3 for i in range(1, 1001)]


def test_reservoir_seeded_eviction_is_deterministic_sample_for_sample():
    def sample() -> list[float]:
        reservoir = LatencyReservoir(capacity=16, seed=42)
        for i in range(3_000):
            reservoir.observe((i * 13 % 500) / 1e3)
        return list(reservoir._sample)

    first, second = sample(), sample()
    # Vitter-R eviction is driven only by the seeded RNG, so a replayed
    # stream reproduces the *identical* resident sample, not merely
    # close quantiles.
    assert first == second
    differently_seeded = LatencyReservoir(capacity=16, seed=43)
    for i in range(3_000):
        differently_seeded.observe((i * 13 % 500) / 1e3)
    assert list(differently_seeded._sample) != first


# ----------------------------------------------------------------------
# the canonical import point
# ----------------------------------------------------------------------
def test_obs_reexports_are_the_obs_metrics_definitions():
    import repro.obs
    import repro.obs.metrics as obs_metrics

    # One definition, two import paths: instruments created through
    # either module land in the same classes, so registries interoperate.
    assert repro.obs.Counter is obs_metrics.Counter
    assert repro.obs.Gauge is obs_metrics.Gauge
    assert repro.obs.LatencyReservoir is obs_metrics.LatencyReservoir
    assert repro.obs.MetricsRegistry is obs_metrics.MetricsRegistry
    assert repro.obs.global_registry() is repro.obs.global_registry()
