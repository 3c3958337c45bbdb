"""Satellite surfaces: the cluster console, Metrics retention, and the
trace/top CLI commands."""

from __future__ import annotations

from repro.cli import main
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.core.metrics import Metrics
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from repro.telemetry import cluster_snapshot, cluster_table
from repro.tuplespace import Entry, TransactionManager
from tests.conftest import run_in_sim
from tests.core.toyapp import SumOfSquares
from tests.telemetry.test_trace import run_traced
from tests.tuplespace.entries import TaskEntry


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
    from repro.experiments.chaos import TenantSquares

    def body(runtime):
        cluster = testbed_small(runtime, workers=2, streams=RandomStreams(1))
        framework = AdaptiveClusterFramework(
            runtime, cluster, TenantSquares(base=0, n=4, task_cost=50.0),
            FrameworkConfig(monitoring=False, compute_real=True,
                            tenant="victim", priority=2,
                            tenant_shares={"victim": 2.0},
                            admission=True, preemption_poll_ms=500.0))
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


def _space_line(table):
    return next(line for line in table.splitlines()
                if line.startswith("space: "))


def test_console_queue_is_the_visible_backlog_after_an_aborted_take(rt):
    # A take counts in ``stats["takes"]`` when it claims, and stays
    # counted when its transaction aborts and the entry comes back.
    framework = AdaptiveClusterFramework(
        rt, testbed_small(rt, workers=1, streams=RandomStreams(5)),
        SumOfSquares(n=4), FrameworkConfig(monitoring=False))
    space = framework.space

    def body():
        space.write(TaskEntry("app", 1))
        txn = TransactionManager(rt).create()
        assert space.take(TaskEntry(), txn=txn, timeout_ms=0.0) is not None
        txn.abort()

    run_in_sim(rt, body)
    assert space.queue_depth() == space.count(Entry()) == 1
    assert cluster_snapshot(framework)["space"]["queue"] == 1
    assert " queue≈1 " in _space_line(cluster_table(framework))


def test_console_reads_the_promoted_replica_after_a_failover():
    def body(runtime):
        cluster = testbed_small(runtime, workers=4,
                                streams=RandomStreams(11))
        framework = AdaptiveClusterFramework(
            runtime, cluster,
            SumOfSquares(n=24, task_cost=400.0, planning_cost=20.0,
                         aggregation_cost=30.0),
            FrameworkConfig(monitoring=False, compute_real=True,
                            transactional_takes=True,
                            task_txn_lease_ms=10_000.0,
                            rpc_timeout_ms=1_000.0, hot_standby=True))
        framework.start()
        framework.start_all_workers()
        runtime.call_later(2_000.0, framework.kill_primary_space)
        report = framework.run_with_recovery()
        assert report.complete
        [supervisor] = framework.supervisors
        assert supervisor.failed_over
        [serving] = framework.current_spaces()
        assert serving is not framework.space
        snapshot = cluster_snapshot(framework)
        table = cluster_table(framework)
        framework.shutdown()
        return serving, snapshot, table

    serving, snapshot, table = run_simulation(body)
    space = snapshot["space"]
    assert space["queue"] == serving.queue_depth() == 0
    assert space["takes"] == serving.stats["takes"]
    assert space["writes"] == serving.stats["writes"]
    line = _space_line(table)
    assert f" takes={serving.stats['takes']} " in line
    assert " queue≈0 " in line


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


# -- Metrics retention ---------------------------------------------------------


def test_metrics_default_behaviour_unchanged(rt):
    metrics = Metrics(rt)
    for i in range(10):
        metrics.record("x", i)
        metrics.event("e", i=i)
    assert isinstance(metrics.series["x"], list)
    assert isinstance(metrics.events, list)
    assert len(metrics.series["x"]) == 10 and len(metrics.events) == 10
