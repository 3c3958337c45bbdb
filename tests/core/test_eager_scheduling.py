"""Eager scheduling (Charlotte-style straggler replication, Table 1)."""

from __future__ import annotations

import pytest

from repro.core import AdaptiveClusterFramework, FrameworkConfig
from repro.node import testbed_small
from tests.core.toyapp import SumOfSquares


def drive(rt, fn):
    proc = rt.kernel.spawn(fn, name="experiment")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


def test_straggler_rescued_by_replica(rt):
    """A crashed worker's in-flight task (no transactions!) gets
    re-executed by a replica instead of hanging the master forever."""
    cluster = testbed_small(rt, workers=3)
    app = SumOfSquares(n=30, task_cost=400.0)
    framework = AdaptiveClusterFramework(
        rt, cluster, app,
        FrameworkConfig(straggler_timeout_ms=2_000.0,
                        transactional_takes=False),
    )

    def killer():
        rt.sleep(1_200.0)  # mid-computation
        framework.worker_hosts[0].crash()

    def experiment():
        framework.start()
        rt.spawn(killer, name="killer")
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(30))
    assert framework.master.replicated_tasks >= 1


def test_no_replication_on_healthy_run(rt):
    cluster = testbed_small(rt, workers=3)
    framework = AdaptiveClusterFramework(
        rt, cluster, SumOfSquares(n=12, task_cost=100.0),
        FrameworkConfig(straggler_timeout_ms=5_000.0),
    )

    def experiment():
        framework.start()
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(12))
    assert framework.master.replicated_tasks == 0
    assert framework.master.duplicate_results == 0


def test_duplicate_results_ignored_and_drained(rt):
    """If the straggler eventually finishes too, its duplicate result is
    consumed without corrupting the aggregate, and the space ends clean."""
    cluster = testbed_small(rt, workers=2)
    app = SumOfSquares(n=8, task_cost=400.0)
    framework = AdaptiveClusterFramework(
        rt, cluster, app,
        FrameworkConfig(straggler_timeout_ms=1_500.0,
                        poll_interval_ms=400.0),
    )
    slow_node = cluster.workers[0]

    def slowdown():
        # Pause-band load makes worker1 a straggler mid-task, then releases
        # it so both the original and the replica eventually finish.
        rt.sleep(1_800.0)
        slow_node.cpu.set_background("user", 74.0)
        rt.sleep(6_000.0)
        slow_node.cpu.clear_background("user")

    def experiment():
        framework.start()
        rt.spawn(slowdown, name="slowdown")
        report = framework.run()
        rt.sleep(4_000.0)  # let the released straggler finish its write
        from repro.core.entries import ResultEntry, TaskEntry

        leftovers = (framework.space.count(TaskEntry()),
                     framework.space.count(ResultEntry()))
        framework.shutdown()
        return report, leftovers

    report, leftovers = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(8))


def test_replication_capped(rt):
    """A task is replicated at most ``Master.MAX_REPLICAS`` times."""
    from repro.core.entries import ResultEntry, TaskEntry
    from repro.core.master import Master
    from repro.core.metrics import Metrics
    from repro.net import Network
    from repro.node.machine import FAST_PC, Node
    from repro.tuplespace import JavaSpace

    net = Network(rt)
    node = Node(rt, net, "master", FAST_PC)
    space = JavaSpace(rt)
    app = SumOfSquares(n=2, task_cost=0.0)
    master = Master(rt, node, space, app, Metrics(rt),
                    straggler_timeout_ms=200.0)

    def black_hole_worker():
        # Takes every task and never returns results.
        template = TaskEntry(app_id=app.app_id)
        while True:
            if space.take(template, timeout_ms=500.0) is None:
                return

    def experiment():
        rt.spawn(black_hole_worker, name="void")
        rt.spawn(master.run, name="master")  # can never finish
        rt.sleep(5_000.0)
        replicated = master.replicated_tasks
        master.cancel()  # unblock the doomed run
        return replicated

    proc = rt.kernel.spawn(experiment, name="experiment")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    # 2 tasks × max 2 replicas each.
    assert proc.result == 4
