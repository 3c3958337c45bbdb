"""Capstone integration: the full adaptive stack on real OS threads.

Everything the simulated experiments exercise — SNMP monitoring, the
rule-base protocol, pause/resume, real computation — but under the wall
clock with genuine thread concurrency.  Time windows are generous to
stay robust on loaded CI machines.
"""

from __future__ import annotations

import time

import pytest

from repro.core import (
    AdaptiveClusterFramework,
    FrameworkConfig,
    Signal,
    WorkerState,
)
from repro.core.application import Application, ClassLoadProfile, Task
from repro.node.cluster import Cluster
from repro.node.machine import FAST_PC
from repro.runtime import ThreadedRuntime


class TricklingSum(Application):
    """Cheap tasks with a small real compute so runs last ~a second."""

    app_id = "threaded-sum"

    def __init__(self, n: int = 40) -> None:
        self.n = n

    def plan(self) -> list[Task]:
        return [Task(task_id=i, payload=i) for i in range(self.n)]

    def execute(self, payload):
        time.sleep(0.01)  # 10 ms of real "work"
        return payload * 2

    def aggregate(self, results):
        return sum(results.values())

    def task_cost_ms(self, task: Task) -> float:
        return 0.0

    def planning_cost_ms(self, task: Task) -> float:
        return 0.0

    def aggregation_cost_ms(self, task_id, result) -> float:
        return 0.0

    def classload_profile(self) -> ClassLoadProfile:
        return ClassLoadProfile(0.0, 0.0, 10_000)


@pytest.fixture()
def rtt():
    runtime = ThreadedRuntime()
    yield runtime
    runtime.shutdown()


def build(rtt, workers=3, **config):
    cluster = Cluster(rtt)
    cluster.add_workers(workers, FAST_PC)
    framework = AdaptiveClusterFramework(
        rtt, cluster, TricklingSum(),
        FrameworkConfig(poll_interval_ms=100.0, worker_poll_ms=30.0, **config),
    )
    return cluster, framework


def test_monitored_run_on_real_threads(rtt):
    cluster, framework = build(rtt)
    framework.start()
    report = framework.run()
    framework.shutdown()
    assert report.solution == sum(i * 2 for i in range(40))
    # Monitoring really recruited the workers (no manual start).
    starts = [e for e in framework.metrics.events_named("signal-sent")
              if e[1]["signal"] == "start"]
    assert len(starts) >= 1
    assert sum(report.results_by_worker.values()) == 40


def test_pause_resume_under_real_load_signal(rtt):
    cluster, framework = build(rtt, workers=1)
    node = cluster.workers[0]
    framework.start()

    runner = rtt.spawn(framework.run, name="master-run")
    deadline = time.monotonic() + 5.0
    host = framework.worker_hosts[0]
    while host.state != WorkerState.RUNNING and time.monotonic() < deadline:
        time.sleep(0.02)
    assert host.state == WorkerState.RUNNING

    # Raise "user" load into the pause band; the poll loop must react.
    node.cpu.set_background("user", 40.0)
    deadline = time.monotonic() + 5.0
    while host.state != WorkerState.PAUSED and time.monotonic() < deadline:
        time.sleep(0.02)
    assert host.state == WorkerState.PAUSED

    node.cpu.clear_background("user")
    deadline = time.monotonic() + 5.0
    while host.state != WorkerState.RUNNING and time.monotonic() < deadline:
        time.sleep(0.02)
    assert host.state == WorkerState.RUNNING

    runner.join(timeout_ms=20_000.0)
    # The master can consume the final result a hair before the worker
    # bumps its counter; give it a beat.
    deadline = time.monotonic() + 2.0
    while host.tasks_done < 40 and time.monotonic() < deadline:
        time.sleep(0.02)
    framework.shutdown()
    assert host.tasks_done == 40


def test_transactional_crash_recovery_on_real_threads(rtt):
    cluster, framework = build(rtt, transactional_takes=True)
    framework.start()

    def killer():
        time.sleep(0.15)  # mid-run
        framework.worker_hosts[0].crash()

    rtt.spawn(killer, name="killer")
    report = framework.run()
    framework.shutdown()
    assert report.solution == sum(i * 2 for i in range(40))


class SlowSum(TricklingSum):
    """Tasks long enough to land signals mid-task on real threads."""

    app_id = "threaded-slow-sum"

    def execute(self, payload):
        time.sleep(0.1)
        return payload * 2


def test_signals_during_a_stops_unwind_on_real_threads(rtt):
    """Stop, Start and Pause 10 ms apart while a task computes: the one
    run process finishes the task, serves the Start, and parks on the
    Pause instead of computing on; Resume then completes the job."""
    cluster = Cluster(rtt)
    cluster.add_workers(1, FAST_PC)
    framework = AdaptiveClusterFramework(
        rtt, cluster, SlowSum(n=20),
        FrameworkConfig(monitoring=False, worker_poll_ms=30.0))
    spawned = []
    spawn = rtt.spawn

    def recording_spawn(fn, name="proc"):
        spawned.append(name)
        return spawn(fn, name)

    rtt.spawn = recording_spawn
    framework.start()
    runner = spawn(framework.run, name="master-run")
    host = framework.worker_hosts[0]
    deadline = time.monotonic() + 5.0
    while host.tasks_done < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.05)                     # mid-task
    for signal in (Signal.STOP, Signal.START, Signal.PAUSE):
        host.handle_signal(signal)
        time.sleep(0.01)
    time.sleep(0.5)                      # the unwind and the reload settle
    parked = host.tasks_done
    time.sleep(0.5)
    assert host.state == WorkerState.PAUSED
    assert host.tasks_done == parked     # no computing while Paused
    host.handle_signal(Signal.RESUME)
    runner.join(timeout_ms=20_000.0)
    deadline = time.monotonic() + 2.0
    while host.tasks_done < 20 and time.monotonic() < deadline:
        time.sleep(0.02)
    framework.shutdown()
    assert host.tasks_done == 20
    assert host.engine.loads == 2
    assert [n for n in spawned if n.startswith("worker-run")] == [
        "worker-run:worker1"]
