"""Trap-driven monitoring mode end-to-end."""

from __future__ import annotations

import pytest

from repro.core import AdaptiveClusterFramework, FrameworkConfig, WorkerState
from repro.node import LoadSimulator2, testbed_small
from tests.core.toyapp import SumOfSquares


def drive(rt, fn):
    proc = rt.kernel.spawn(fn, name="experiment")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


def test_trap_mode_recruits_and_completes(rt):
    cluster = testbed_small(rt, workers=3)
    framework = AdaptiveClusterFramework(
        rt, cluster, SumOfSquares(n=12),
        FrameworkConfig(monitoring_mode="trap"),
    )

    def experiment():
        framework.start()
        report = framework.run()
        states = [h.state for h in framework.worker_hosts]
        framework.shutdown()
        return report, states

    report, states = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(12))
    assert all(s == WorkerState.RUNNING for s in states)
    assert framework.netmgmt.stats["traps_received"] >= 3  # announcements
    assert framework.netmgmt.stats["polls"] == 0           # no polling at all


def test_trap_mode_never_recruits_preloaded_worker(rt):
    """A node already loaded at announcement time is left alone."""
    cluster = testbed_small(rt, workers=3)
    app = SumOfSquares(n=12, task_cost=200.0)
    framework = AdaptiveClusterFramework(
        rt, cluster, app, FrameworkConfig(monitoring_mode="trap"),
    )
    LoadSimulator2(rt, cluster.workers[0]).start()

    def experiment():
        framework.start()
        report = framework.run()
        state = framework.worker_hosts[0].state
        framework.shutdown()
        return report, state

    report, state = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(12))
    assert state == WorkerState.STOPPED  # initial state: never started
    assert "worker1" not in report.results_by_worker


def test_trap_mode_stops_worker_on_transient_load(rt):
    """A load burst mid-run Stops the worker via trap; release re-Starts it."""
    cluster = testbed_small(rt, workers=3)
    app = SumOfSquares(n=80, task_cost=300.0)
    framework = AdaptiveClusterFramework(
        rt, cluster, app, FrameworkConfig(monitoring_mode="trap"),
    )
    hog = LoadSimulator2(rt, cluster.workers[0])

    def loader():
        rt.sleep(3000.0)
        hog.start()
        rt.sleep(4000.0)
        hog.stop()

    def experiment():
        framework.start()
        rt.spawn(loader, name="loader")
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(80))
    w1_signals = [
        e[1]["signal"] for e in framework.metrics.events_named("signal-sent")
        if e[1]["worker"] == "worker1"
    ]
    assert "stop" in w1_signals
    assert w1_signals.count("start") >= 2  # recruited, stopped, re-recruited


def test_trap_mode_faster_and_cheaper_than_slow_polls(rt):
    """The extension's selling point: band-change traps react within the
    local sampling window while sending almost no datagrams."""
    from repro.experiments import (
        adaptation_experiment,
        make_raytrace_app,
        raytrace_cluster,
    )

    # Reuse the adaptation harness with a custom framework config through
    # its poll interval; trap mode is exercised by the framework tests
    # above, and the trap-vs-poll bench quantifies the trade — here we
    # just pin the poll baseline that the bench compares against.
    result = adaptation_experiment(make_raytrace_app, raytrace_cluster,
                                   poll_interval_ms=2000.0)
    stop = result.reaction_for("stop")
    assert stop.at_ms - 8000.0 <= 2000.0 + 1500.0


def test_invalid_monitoring_mode_rejected(rt):
    from repro.core.inference import InferenceEngine
    from repro.core.metrics import Metrics
    from repro.core.netmgmt import NetworkManagementModule
    from repro.net import Network

    with pytest.raises(ValueError):
        NetworkManagementModule(rt, Network(rt), "m", Metrics(rt),
                                InferenceEngine(), mode="push")
