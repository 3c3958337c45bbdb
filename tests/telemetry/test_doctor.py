"""Doctor acceptance: closed attribution and determinism.

The tentpole criterion: on a warm pipelined job the phase attribution
sums to 100% of the job's wall time (±1%) and the report is
byte-identical across repeated runs of the same seed.
"""

from __future__ import annotations

import pytest

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from repro.telemetry import analyze_job
from repro.telemetry.doctor import PHASE_ORDER
from tests.core.toyapp import SumOfSquares


def run_warm_pipelined(n: int = 12, workers: int = 3, prefetch: int = 4):
    """Two back-to-back jobs on one standing framework; analyze the 2nd."""

    def body(runtime):
        cluster = testbed_small(runtime, workers=workers,
                                streams=RandomStreams(5))
        framework = AdaptiveClusterFramework(
            runtime, cluster, SumOfSquares(n=n),
            FrameworkConfig(monitoring=False, trace=True,
                            worker_prefetch=prefetch,
                            master_seed_batch=prefetch,
                            master_drain_batch=prefetch))
        framework.start()
        framework.start_all_workers()
        warm = framework.master.run()
        report = framework.master.run()
        framework.shutdown()
        assert warm.complete and report.complete
        return analyze_job(framework.tracer)

    return run_simulation(body)


def test_attribution_sums_to_job_wall_time():
    doc = run_warm_pipelined()
    assert abs(doc.attributed_fraction() - 1.0) <= 0.01
    assert abs(sum(doc.phase_ms().values()) - doc.wall_ms) <= \
        0.01 * doc.wall_ms
    assert doc.wall_ms > 0


def test_report_is_byte_identical_across_runs():
    a = run_warm_pipelined()
    b = run_warm_pipelined()
    assert a.to_json() == b.to_json()
    assert a.format() == b.format()


def test_phases_cover_the_canonical_order():
    doc = run_warm_pipelined()
    assert tuple(p.name for p in doc.phases) == PHASE_ORDER
    by_phase = doc.phase_ms()
    assert by_phase["compute"] > 0           # the job does real (virtual) work
    assert all(ms >= 0 for ms in by_phase.values())


def test_analyzes_the_warm_job_not_the_warmup():
    # Two 'job' spans share the tracer; the doctor must pick the last.
    doc = run_warm_pipelined()
    # The warm job starts after the warm-up job finished, so its window
    # cannot begin at (or before) the simulation origin.
    assert doc.start_ms > 0


def test_worker_lanes_and_slowest_tasks_populated():
    doc = run_warm_pipelined(workers=3)
    assert len(doc.workers) == 3
    for lane in doc.workers:
        assert 0.0 <= lane.utilization <= 1.0
        assert len(lane.timeline) == 40
    assert doc.slowest, "expected at least one ranked task"
    tops = [t.total_ms for t in doc.slowest]
    assert tops == sorted(tops, reverse=True)
    for task in doc.slowest:
        assert task.total_ms >= task.compute_ms - 1e-9


def test_untraced_run_raises_a_clear_error():
    def body(runtime):
        cluster = testbed_small(runtime, workers=2,
                                streams=RandomStreams(5))
        framework = AdaptiveClusterFramework(
            runtime, cluster, SumOfSquares(n=4),
            FrameworkConfig(monitoring=False, trace=False))
        framework.start()
        framework.run()
        framework.shutdown()
        return framework.tracer

    tracer = run_simulation(body)
    with pytest.raises(ValueError, match="job"):
        analyze_job(tracer)
