"""Satellite surfaces: the cluster console, runtime-clock log stamps,
Metrics ring-buffer/summary, and the trace/top CLI commands."""

from __future__ import annotations

import io
import logging

import pytest

from repro.cli import main
from repro.core.metrics import Metrics
from repro.telemetry import Tracer, cluster_table
from repro.util.log import configure, get_logger
from tests.telemetry.test_trace import run_traced


# -- cluster console -----------------------------------------------------------


def test_cluster_table_final_snapshot():
    report, framework = run_traced(n=8, workers=2)
    table = cluster_table(framework, report=report)
    assert "cluster 'toy-squares'" in table
    assert "worker1" in table and "worker2" in table
    assert "space: writes=" in table
    # The match figure rides the space line: ids walked / indexes
    # built — and the registry carries the same counters.
    match = framework.space.match_stats
    assert set(match) == {"scan_steps", "index_builds"}
    assert match["scan_steps"] > 0
    assert (f"match: {match['scan_steps']} steps/"
            f"{match['index_builds']} indexes") in table
    assert framework.registry.value("space.match.scan_steps") == \
        match["scan_steps"]
    assert f"complete={report.complete}" in table
    # Every worker row carries a tasks count; they sum to the job size.
    rows = [line for line in table.splitlines()
            if line.startswith(("worker1", "worker2"))]
    assert sum(int(row.split()[2]) for row in rows) == 8


def test_cluster_table_without_report():
    _, framework = run_traced(n=4, workers=2)
    table = cluster_table(framework)
    assert "job:" not in table
    assert "space:" in table


def test_cluster_table_shows_tenancy_lines():
    from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
    from repro.experiments.chaos import TenantSquares
    from repro.experiments.harness import run_simulation
    from repro.node.cluster import testbed_small
    from repro.sim.rng import RandomStreams

    def body(runtime):
        cluster = testbed_small(runtime, workers=2, streams=RandomStreams(1))
        framework = AdaptiveClusterFramework(
            runtime, cluster, TenantSquares(base=0, n=4, task_cost=50.0),
            FrameworkConfig(monitoring=False, compute_real=True,
                            tenant="victim", priority=2,
                            tenant_shares={"victim": 2.0},
                            admission=True, preemption=True))
        framework.start()
        framework.start_all_workers()
        framework.master.run()
        table = cluster_table(framework)
        framework.shutdown()
        return table

    table = run_simulation(body)
    assert "admission: checked=" in table
    assert "tenants: victim=" in table
    assert "preemption: preemptions=" in table


def test_cluster_table_silent_without_tenancy():
    _, framework = run_traced(n=4, workers=2)
    table = cluster_table(framework)
    assert "admission:" not in table
    assert "preemption:" not in table


def test_top_command(capsys):
    assert main(["top", "ray-tracing", "--workers", "2", "--follow"]) == 0
    out = capsys.readouterr().out
    assert "cluster 'ray-tracing'" in out
    assert "job:" in out  # final snapshot includes the report line


def test_trace_command(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    prom_file = tmp_path / "m.prom"
    assert main(["trace", "ray-tracing", "--workers", "2",
                 "--out", str(out_file),
                 "--metrics-out", str(prom_file)]) == 0
    out = capsys.readouterr().out
    assert "coverage" in out and "perfetto" in out
    assert out_file.exists() and prom_file.exists()
    assert "space_writes" in prom_file.read_text()


# -- log satellites ------------------------------------------------------------


def test_log_clock_prefix_and_trace_id(rt):
    tracer = Tracer(rt, enabled=True)
    stream = io.StringIO()
    root = logging.getLogger("repro")
    before = list(root.handlers)
    try:
        configure(level=logging.INFO, stream=stream, force=True,
                  clock=rt.now, tracer=tracer)
        log = get_logger("worker")
        log.info("outside any span")
        span = tracer.start("compute", "app/3")
        with tracer.activate(span):
            log.info("inside the span")
        span.end()
    finally:
        root.handlers = before
    lines = stream.getvalue().splitlines()
    assert lines[0].startswith("[t=0.000]")
    assert "[-]" in lines[0]
    assert "[app/3]" in lines[1]


def test_log_default_format_unchanged():
    stream = io.StringIO()
    root = logging.getLogger("repro")
    before = list(root.handlers)
    try:
        configure(level=logging.INFO, stream=stream, force=True)
        get_logger("worker").info("plain")
    finally:
        root.handlers = before
    assert stream.getvalue() == "repro.worker INFO plain\n"


# -- Metrics ring buffer and summary -------------------------------------------


def test_metrics_default_behaviour_unchanged(rt):
    metrics = Metrics(rt)
    for i in range(10):
        metrics.record("x", i)
        metrics.event("e", i=i)
    assert isinstance(metrics.series["x"], list)
    assert isinstance(metrics.events, list)
    assert len(metrics.series["x"]) == 10 and len(metrics.events) == 10


def test_metrics_ring_buffer_caps_retention(rt):
    metrics = Metrics(rt, max_points=3)
    for i in range(10):
        metrics.record("x", i)
        metrics.event("e", i=i)
    assert [v for _, v in metrics.series["x"]] == [7.0, 8.0, 9.0]
    assert len(metrics.events) == 3
    assert metrics.last("x") == 9.0


def test_metrics_max_points_validation(rt):
    with pytest.raises(ValueError):
        Metrics(rt, max_points=0)


def test_metrics_summary(rt):
    metrics = Metrics(rt)
    for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
        metrics.record("lat", v)
    summary = metrics.summary("lat")
    assert summary == {"count": 5.0, "mean": 3.0, "p50": 3.0,
                       "p95": 5.0, "max": 5.0}
    assert metrics.summary("missing") is None


def test_metrics_summary_respects_ring_window(rt):
    metrics = Metrics(rt, max_points=2)
    for v in [100.0, 1.0, 2.0]:
        metrics.record("lat", v)
    assert metrics.summary("lat")["max"] == 2.0
