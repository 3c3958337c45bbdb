"""Self-healing runtime: partitions, server restarts, poison quarantine.

The scenarios the robustness layer exists for — each one killed the old
fail-stop worker or hung the master before the recovery policy, the
transaction ``finally`` and the dead-letter drain were added.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.core import AdaptiveClusterFramework, FrameworkConfig
from repro.core.entries import TaskEntry
from repro.core.states import WorkerState
from repro.node import testbed_small
from tests.core.toyapp import SumOfSquares


def drive(rt, fn):
    proc = rt.kernel.spawn(fn, name="experiment")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


class PoisonApp(SumOfSquares):
    """SumOfSquares whose designated task always raises."""

    def __init__(self, n: int = 12, poison: int = 5, **kwargs: Any) -> None:
        super().__init__(n=n, **kwargs)
        self.poison = poison

    def execute(self, payload: Any) -> Any:
        if payload == self.poison:
            raise ValueError(f"poison task {payload}")
        return payload * payload

    def aggregate(self, results: dict[int, Any]) -> Any:
        return sum(results.values())  # partial-tolerant


def robust_config(**overrides: Any) -> FrameworkConfig:
    defaults = dict(
        monitoring=False,
        transactional_takes=True,
        rpc_timeout_ms=400.0,
        dead_letter_poll_ms=500.0,
    )
    defaults.update(overrides)
    return FrameworkConfig(**defaults)


def test_partition_during_take_task_reappears_and_worker_rejoins(rt):
    """Satellite: isolate a worker mid-RPC.  Its in-flight transaction
    aborts, the task entry reappears for the others, and after the heal
    the reconnecting proxy brings the worker back into the pool."""
    cluster = testbed_small(rt, workers=2)
    app = SumOfSquares(n=16, task_cost=400.0)
    framework = AdaptiveClusterFramework(rt, cluster, app, robust_config())

    def chaos():
        rt.sleep(1_000.0)            # worker1 is mid-cycle
        cluster.network.isolate("worker1")
        rt.sleep(2_000.0)
        cluster.network.heal("worker1")

    def experiment():
        framework.start()
        rt.spawn(chaos, name="chaos")
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert report.complete
    assert report.solution == sum(i * i for i in range(16))
    assert sum(report.results_by_worker.values()) == 16   # exactly once
    # The partitioned worker detected the outage and recovered.
    recovered = framework.metrics.events_named("worker-recovered")
    assert any(p["worker"] == "worker1" for _, p in recovered)
    # It kept contributing after the heal instead of staying dead.
    assert report.results_by_worker.get("worker1", 0) > 0


def test_space_server_restart_mid_run_recovers(rt):
    cluster = testbed_small(rt, workers=3)
    app = SumOfSquares(n=18, task_cost=400.0)
    framework = AdaptiveClusterFramework(rt, cluster, app, robust_config())

    def chaos():
        rt.sleep(1_500.0)
        framework.space_server.crash()
        rt.sleep(600.0)
        framework.space_server.start()

    def experiment():
        framework.start()
        rt.spawn(chaos, name="chaos")
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert report.complete
    assert report.solution == sum(i * i for i in range(18))
    assert framework.space_server.restarts == 1
    assert framework.metrics.events_named("proxy-reconnected")


def test_poison_task_is_quarantined_not_fatal(rt):
    """Satellite (txn-leak regression): an application exception aborts
    the cycle's transaction instead of stranding it, the poison task is
    retried then dead-lettered, and the master still terminates."""
    cluster = testbed_small(rt, workers=2)
    app = PoisonApp(n=12, poison=5, task_cost=150.0)
    framework = AdaptiveClusterFramework(
        rt, cluster, app, robust_config(max_task_attempts=2),
    )

    def experiment():
        framework.start()
        report = framework.run()
        leftover = framework.space.take_if_exists(
            TaskEntry(app_id=app.app_id))
        framework.shutdown()
        return report, leftover

    report, leftover = drive(rt, experiment)
    assert not report.complete
    assert list(report.dead_letters) == [5]
    assert "poison task 5" in report.dead_letters[5]
    assert report.solution == sum(i * i for i in range(12) if i != 5)
    # The failed attempts never leaked their transaction: no TaskEntry is
    # stuck invisible under an open txn, and none remains queued.
    assert leftover is None
    requeues = framework.metrics.events_named("task-requeued")
    assert len(requeues) == 1      # attempt 1 → requeue, attempt 2 → dead
    assert framework.metrics.events_named("dead-letter")
    # Both workers stayed alive through the poison and did real work.
    assert sum(report.results_by_worker.values()) == 11


def test_unexpected_worker_error_is_recorded_not_silent(rt, monkeypatch):
    """Satellite: a non-connection crash inside the loop must record a
    worker-error event and leave the state machine stopped, not unwind
    the host silently while it still claims to be Running."""
    cluster = testbed_small(rt, workers=2)
    app = SumOfSquares(n=10, task_cost=100.0)
    framework = AdaptiveClusterFramework(rt, cluster, app, robust_config())

    def experiment():
        framework.start()
        broken = framework.worker_hosts[0]
        monkeypatch.setattr(
            broken, "_cycle",
            lambda proxy, template: (_ for _ in ()).throw(
                RuntimeError("corrupt reply")),
        )
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert report.complete                  # the healthy worker finished
    assert report.solution == sum(i * i for i in range(10))
    errors = framework.metrics.events_named("worker-error")
    assert any("corrupt reply" in p["error"] for _, p in errors)
    assert framework.worker_hosts[0].state == WorkerState.STOPPED
