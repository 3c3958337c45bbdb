"""Coverage + Chrome export hold up beyond the single-space testbed.

The tracer's acceptance numbers were established on the classic one-space
deployment; these tests pin them on the two scale-out paths — a sharded
space (scatter/gather planning) and a multi-tenant contention campaign
(TENANT_STRIDE-namespaced task ids across tenants).
"""

from __future__ import annotations

import json

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.chaos import (
    TENANT_STRIDE,
    contention_chaos_experiment,
)
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from tests.core.toyapp import SumOfSquares


def run_sharded_traced(n: int = 8, workers: int = 2, shards: int = 4):
    def body(runtime):
        cluster = testbed_small(runtime, workers=workers,
                                streams=RandomStreams(3))
        framework = AdaptiveClusterFramework(
            runtime, cluster, SumOfSquares(n=n),
            FrameworkConfig(monitoring=False, trace=True, shards=shards))
        framework.start()
        report = framework.run()
        framework.shutdown()
        return report, framework

    return run_simulation(body)


# -- sharded ------------------------------------------------------------------

def test_sharded_coverage_of_job_window():
    report, framework = run_sharded_traced()
    assert report.complete
    tracer = framework.tracer
    job = tracer.find("job")
    assert tracer.coverage(job.start_ms, job.end_ms) >= 0.95


def test_sharded_run_emits_scatter_spans():
    _, framework = run_sharded_traced(shards=4)
    scatters = [s for s in framework.tracer.spans if s.name == "scatter"]
    assert scatters, "sharded planning should record scatter spans"
    for span in scatters:
        assert span.end_ms is not None and span.end_ms >= span.start_ms


def test_sharded_chrome_export_is_valid(tmp_path):
    _, framework = run_sharded_traced(n=4)
    path = tmp_path / "trace.json"
    framework.tracer.write_chrome(str(path))
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    for event in events:
        assert event["ph"] in ("X", "i", "M")
        if event["ph"] == "X":
            assert event["dur"] >= 0 and event["ts"] >= 0


def test_sharded_span_ids_deterministic_across_runs():
    def keys(framework):
        return [(s.name, s.trace_id, s.span_id, s.parent_id, s.proc,
                 s.start_ms, s.end_ms) for s in framework.tracer.spans]

    _, first = run_sharded_traced(n=6)
    _, second = run_sharded_traced(n=6)
    assert keys(first) == keys(second)


# -- multi-tenant -------------------------------------------------------------

def run_contention_traced(tenants: int = 4):
    return contention_chaos_experiment(
        seed=11, tenants=tenants, aggressor=False, trace=True)


def test_tenant_task_spans_are_stride_namespaced():
    tenants = 4
    result = run_contention_traced(tenants=tenants)
    tracer = result.tracer
    assert tracer is not None and tracer.enabled

    task_ids = sorted(
        int(s.trace_id.rsplit("/", 1)[1])
        for s in tracer.spans if s.name == "task")
    assert task_ids, "expected task spans from the traced campaign"
    lanes = {tid // TENANT_STRIDE for tid in task_ids}
    assert len(lanes) > 1, "tenants should occupy distinct id lanes"
    assert lanes <= set(range(tenants))
    # Namespacing means no two tenants' spans collide on trace_id.
    trace_ids = [s.trace_id for s in tracer.spans if s.name == "task"]
    assert len(trace_ids) == len(set(trace_ids))


def test_contention_chrome_export_covers_every_tenant_lane(tmp_path):
    result = run_contention_traced(tenants=3)
    path = tmp_path / "trace.json"
    result.tracer.write_chrome(str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert events
    task_events = [e for e in events
                   if e["ph"] == "X" and e["name"] == "task"]
    assert task_events
    for event in task_events:
        assert event["dur"] >= 0 and event["ts"] >= 0


def test_contention_coverage_of_each_tenant_job():
    result = run_contention_traced(tenants=3)
    tracer = result.tracer
    jobs = [s for s in tracer.spans if s.name == "job"]
    assert jobs, "each tenant master should record a job span"
    for job in jobs:
        if job.end_ms is None:      # a starved tenant may never finish
            continue
        assert tracer.coverage(job.start_ms, job.end_ms) >= 0.90
