"""End-to-end framework tests on the simulated cluster."""

from __future__ import annotations

import pytest

from repro.core import (
    AdaptiveClusterFramework,
    FrameworkConfig,
    Signal,
    WorkerState,
)
from repro.errors import ConfigurationError
from repro.jini.discovery import DiscoveryClient
from repro.jini.join import LookupClient
from repro.node import LoadSimulator2, testbed_small
from tests.core.toyapp import SumOfSquares


def drive(rt, fn):
    proc = rt.kernel.spawn(fn, name="experiment")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished, "experiment blocked"
    return proc.result


def test_full_run_produces_correct_solution(rt):
    cluster = testbed_small(rt, workers=3)
    app = SumOfSquares(n=12)
    framework = AdaptiveClusterFramework(rt, cluster, app)

    def experiment():
        framework.start()
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(12))
    assert report.task_count == 12
    assert report.planning_ms > 0
    assert report.parallel_ms >= report.planning_ms


def test_tasks_distributed_across_workers(rt):
    cluster = testbed_small(rt, workers=3)
    app = SumOfSquares(n=30, task_cost=200.0)
    framework = AdaptiveClusterFramework(rt, cluster, app)

    def experiment():
        framework.start()
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert sum(report.results_by_worker.values()) == 30
    # With coarse tasks and three idle workers, everyone participates.
    assert len(report.results_by_worker) == 3


def test_workers_recruited_by_monitoring(rt):
    """No manual start: the first SNMP poll Start-signals idle workers."""
    cluster = testbed_small(rt, workers=2)
    framework = AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=6))

    def experiment():
        framework.start()
        report = framework.run()
        states = [h.state for h in framework.worker_hosts]
        framework.shutdown()
        return report, states

    report, states = drive(rt, experiment)
    assert all(state == WorkerState.RUNNING for state in states)
    starts = [e for e in framework.metrics.events_named("signal-sent")
              if e[1]["signal"] == "start"]
    assert len(starts) == 2


def test_monitoring_disabled_uses_manual_start(rt):
    cluster = testbed_small(rt, workers=2)
    framework = AdaptiveClusterFramework(
        rt, cluster, SumOfSquares(n=6), FrameworkConfig(monitoring=False)
    )

    def experiment():
        framework.start()
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(6))
    assert framework.netmgmt is None


def test_loaded_worker_is_stopped_and_work_completes_elsewhere(rt):
    cluster = testbed_small(rt, workers=3)
    app = SumOfSquares(n=20, task_cost=300.0)
    framework = AdaptiveClusterFramework(
        rt, cluster, app, FrameworkConfig(poll_interval_ms=300.0)
    )
    hog = LoadSimulator2(rt, cluster.workers[0])

    def experiment():
        hog.start()  # worker1 is busy from the outset
        framework.start()
        report = framework.run()
        states = {h.node.hostname: h.state for h in framework.worker_hosts}
        framework.shutdown()
        return report, states

    report, states = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(20))
    assert states["worker1"] == WorkerState.STOPPED
    assert "worker1" not in report.results_by_worker
    assert sum(report.results_by_worker.values()) == 20


def test_class_loading_happens_once_per_start(rt):
    cluster = testbed_small(rt, workers=2)
    framework = AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=8))

    def experiment():
        framework.start()
        framework.run()
        loads = [h.engine.loads for h in framework.worker_hosts]
        framework.shutdown()
        return loads

    assert drive(rt, experiment) == [1, 1]
    assert framework.code_server.stats["downloads"] == 2


def test_jini_lookup_resolves_space(rt):
    cluster = testbed_small(rt, workers=1)
    framework = AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=2))

    def resolve(from_host):
        """Discovery, then lookup: how a worker finds the space."""
        registrars = DiscoveryClient(rt, cluster.network, from_host).discover(
            timeout_ms=50.0, expected=1)
        client = LookupClient(cluster.network, from_host, registrars[0])
        try:
            items = client.lookup({"type": "JavaSpaces",
                                   "app": framework.app.app_id})
        finally:
            client.close()
        return items[0].service

    def experiment():
        framework.start()
        address = resolve("worker1")
        report = framework.run()
        framework.shutdown()
        return address, report

    address, report = drive(rt, experiment)
    assert address == framework.space_address
    assert report.solution == 1


def test_pause_resume_preserves_all_tasks(rt):
    """Pause mid-run, resume, and verify no task lost or duplicated."""
    cluster = testbed_small(rt, workers=1)
    app = SumOfSquares(n=10, task_cost=400.0)
    framework = AdaptiveClusterFramework(
        rt, cluster, app, FrameworkConfig(poll_interval_ms=200.0)
    )
    worker_node = cluster.workers[0]

    def loader():
        # Push the worker into the pause band mid-computation, then release.
        rt.sleep(2000.0)
        worker_node.cpu.set_background("user", 40.0)
        rt.sleep(2000.0)
        worker_node.cpu.clear_background("user")

    def experiment():
        framework.start()
        rt.spawn(loader, name="loader")
        report = framework.run()
        framework.shutdown()
        return report

    report = drive(rt, experiment)
    assert report.solution == sum(i * i for i in range(10))
    host = framework.worker_hosts[0]
    assert host.tasks_done == 10
    signals = [e[1]["signal"] for e in framework.metrics.events_named("signal-sent")]
    assert "pause" in signals
    assert "resume" in signals


def test_report_timings_are_consistent(rt):
    cluster = testbed_small(rt, workers=2)
    framework = AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=10))

    def experiment():
        framework.start()
        report = framework.run()
        max_worker = framework.max_worker_time_ms()
        framework.shutdown()
        return report, max_worker

    report, max_worker = drive(rt, experiment)
    assert report.parallel_ms == pytest.approx(
        report.planning_ms + report.aggregation_ms
    )
    assert max_worker > 0
    assert report.max_task_overhead_ms > 0


@pytest.mark.parametrize("field, value", [
    ("admission_soft_watermark", 8),
    ("admission_quotas", {"t": 4}),
    ("admission_rates", {"t": 10.0}),
])
def test_admission_settings_without_admission_are_rejected(rt, field, value):
    cluster = testbed_small(rt, workers=1)
    with pytest.raises(ConfigurationError, match=f"{field} needs admission"):
        AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=2),
                                 FrameworkConfig(**{field: value}))
    AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=2),
                             FrameworkConfig(admission=True, **{field: value}))


@pytest.mark.parametrize("field, complaint", [
    ("worker_prefetch", "prefetch must be >= 1: 0"),
    ("master_seed_batch", "seed_batch/drain_batch must be >= 1: 0/1"),
    ("master_drain_batch", "seed_batch/drain_batch must be >= 1: 1/0"),
])
def test_pipeline_knobs_below_one_fail_before_anything_serves(rt, field,
                                                               complaint):
    """A zero depth is refused at construction, as a ConfigurationError,
    not half-way through start() with the servers already up."""
    cluster = testbed_small(rt, workers=1)
    with pytest.raises(ConfigurationError, match=complaint):
        AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=2),
                                 FrameworkConfig(**{field: 0}))
