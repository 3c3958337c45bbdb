"""Registry unit tests: instruments, collectors, Prometheus exposition,
snapshots, and the unified space-stats naming."""

from __future__ import annotations

import pytest

from repro.core.metrics import Metrics
from repro.telemetry import Histogram, MetricsSnapshotter, Registry
from repro.tuplespace import JavaSpace
from tests.conftest import run_in_sim
from tests.tuplespace.entries import TaskEntry


def test_expose_reads_through_at_call_time():
    registry = Registry()
    depth = [5]
    registry.expose("queue.depth", lambda: depth[0])
    assert registry.value("queue.depth") == 5
    depth[0] = 4
    assert registry.value("queue.depth") == 4


def test_labels_partition_instruments():
    registry = Registry()
    registry.expose("rpc.calls", lambda: 3, op="take")
    registry.expose("rpc.calls", lambda: 1, op="write")
    assert registry.value("rpc.calls", op="take") == 3
    assert registry.value("rpc.calls", op="write") == 1
    assert registry.value("rpc.calls", op="read") is None


def test_histogram_stats_and_quantiles():
    h = Histogram()
    for v in [1.0, 2.0, 4.0, 8.0, 16.0]:
        h.observe(v)
    assert h.count == 5
    assert h.sum == 31.0
    assert h.mean == pytest.approx(6.2)
    assert h.min == 1.0 and h.max == 16.0
    # The estimate is an upper bound within one sub-bucket (2**(1/8)).
    for q, true_value in [(0.2, 1.0), (0.5, 4.0), (1.0, 16.0)]:
        est = h.quantile(q)
        assert true_value <= est <= true_value * 2 ** (1 / 8) + 1e-9


def test_histogram_zero_and_negative_observations():
    h = Histogram()
    h.observe(0.0)
    h.observe(-3.0)
    h.observe(10.0)
    assert h.count == 3
    assert h.quantile(0.5) <= 0.0
    assert h.quantile(1.0) == 10.0


def test_prometheus_text_golden():
    registry = Registry()
    registry.expose("space.writes", lambda: 7)
    registry.expose("queue.depth", lambda: 2, space="primary")
    h = registry.histogram("rpc.latency-ms")
    h.observe(1.0)
    h.observe(3.0)
    registry.expose("wal.commits", lambda: 42)

    expected = (
        "# TYPE queue_depth gauge\n"
        'queue_depth{space="primary"} 2\n'
        "# TYPE rpc_latency_ms histogram\n"
        'rpc_latency_ms_bucket{le="1.0905077326652577"} 1\n'
        'rpc_latency_ms_bucket{le="3.0844216508158815"} 2\n'
        'rpc_latency_ms_bucket{le="+Inf"} 2\n'
        "rpc_latency_ms_sum 4\n"
        "rpc_latency_ms_count 2\n"
        "# TYPE space_writes gauge\n"
        "space_writes 7\n"
        "# TYPE wal_commits gauge\n"
        "wal_commits 42\n"
    )
    assert registry.prometheus_text() == expected


def test_space_stats_unified_naming(rt):
    """The space's stats ride into the registry as ``space.<key>`` and the
    old dict API keeps working as a read-through view."""
    space = JavaSpace(rt)
    registry = Registry()
    registry.expose_dict("space", space.stats)

    def body():
        space.write(TaskEntry("app", 1, None))
        space.write(TaskEntry("app", 2, None))
        space.take(TaskEntry(), timeout_ms=0.0)

    run_in_sim(rt, body)

    # Old surface: mapping reads, .get defaults, dict() conversion.
    assert space.stats["writes"] == 2
    assert space.stats["takes"] == 1
    assert space.stats.get("wakeups", 0) >= 0
    assert dict(space.stats)["writes"] == 2
    with pytest.raises(KeyError):
        space.stats["nonsense"]

    # New surface: registry collector reads the same live numbers.
    assert registry.value("space.writes") == 2
    assert registry.value("space.takes") == 1
    assert "space_writes 2" in registry.prometheus_text()


def test_snapshot_into_metrics(rt):
    registry = Registry()
    registry.expose("a.total", lambda: 5)
    h = registry.histogram("b.lat", op="x")
    h.observe(2.0)
    metrics = Metrics(rt)
    registry.snapshot_into(metrics)
    assert metrics.last("telemetry/a.total") == 5
    assert metrics.last("telemetry/b.lat{op=x}.count") == 1
    assert metrics.last("telemetry/b.lat{op=x}.p95") >= 2.0


def test_snapshotter_rides_kernel_advance(rt):
    registry = Registry()
    ticks = [0]
    registry.expose("ticks.total", lambda: ticks[0])
    metrics = Metrics(rt)
    snapshotter = MetricsSnapshotter(registry, metrics, interval_ms=100.0)
    assert snapshotter.attach(rt)

    def body():
        for _ in range(5):
            ticks[0] += 1
            rt.sleep(100.0)

    run_in_sim(rt, body)
    points = metrics.series["telemetry/ticks.total"]
    assert len(points) >= 4
    # Values are monotone (a running total) and timestamped on the virtual clock.
    values = [v for _, v in points]
    assert values == sorted(values)
    assert points[-1][0] >= 400.0


def test_snapshotter_chains_existing_hook(rt):
    seen = []
    rt.kernel.on_advance = seen.append
    snapshotter = MetricsSnapshotter(Registry(), Metrics(rt))
    snapshotter.attach(rt)
    run_in_sim(rt, lambda: rt.sleep(50.0))
    assert seen, "previous on_advance hook was dropped"
