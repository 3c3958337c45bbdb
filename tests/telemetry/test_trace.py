"""End-to-end span propagation: master → space → worker → master.

The tracing acceptance criteria: deterministic span IDs across runs,
a causally-ordered span tree per task, ≥ 95% coverage of the virtual
job time, a valid Chrome ``trace_event`` export, and zero perturbation
of the virtual timeline when tracing is toggled.
"""

from __future__ import annotations

import gc
import json
import threading

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.runtime import ThreadedRuntime
from repro.sim.rng import RandomStreams
from repro.telemetry.trace import Tracer
from tests.core.toyapp import SumOfSquares


def run_traced(trace: bool = True, n: int = 8, workers: int = 2):
    def body(runtime):
        cluster = testbed_small(runtime, workers=workers,
                                streams=RandomStreams(3))
        framework = AdaptiveClusterFramework(
            runtime, cluster, SumOfSquares(n=n),
            FrameworkConfig(monitoring=False, trace=trace))
        framework.start()
        report = framework.run()
        framework.shutdown()
        return report, framework

    return run_simulation(body)


def span_key(span):
    return (span.name, span.trace_id, span.span_id, span.parent_id,
            span.proc, span.start_ms, span.end_ms)


def test_span_tree_covers_every_task():
    report, framework = run_traced(n=8)
    tracer = framework.tracer
    assert tracer.enabled
    assert report.complete

    job = tracer.find("job")
    assert job is not None and job.end_ms is not None
    assert job.attrs.get("complete") is True

    planning = tracer.find("planning")
    aggregation = tracer.find("aggregation")
    assert planning.parent_id == job.span_id
    assert aggregation.parent_id == job.span_id

    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    # One task span per task, rooted at the job, with the trace ID that
    # travelled in the entry ("<app_id>/<task_id>").
    tasks = {s.trace_id: s for s in by_name["task"]}
    assert set(tasks) == {f"toy-squares/{i}" for i in range(8)}
    for span in tasks.values():
        assert span.parent_id == job.span_id
        assert span.span_id == span.trace_id  # root of the per-task tree
        assert span.end_ms is not None
        assert span.attrs.get("status") == "aggregated"

    # Worker-side compute spans hang off the task root and carry the
    # executing process.
    computes = {s.trace_id: s for s in by_name["compute"]}
    assert set(computes) == set(tasks)
    for trace_id, span in computes.items():
        assert span.parent_id == trace_id
        assert span.proc.startswith("worker")
        task = tasks[trace_id]
        assert task.start_ms <= span.start_ms <= span.end_ms <= task.end_ms

    # Master-side aggregation shares, one per task.
    aggregates = {s.trace_id: s for s in by_name["aggregate"]}
    assert set(aggregates) == set(tasks)
    for span in aggregates.values():
        assert span.proc == "master"

    # RPC spans nest under the ambient compute span on the worker.
    compute_ids = {s.span_id for s in by_name["compute"]}
    nested_rpcs = [s for s in tracer.spans if s.name.startswith("rpc.")
                   and s.parent_id in compute_ids]
    assert nested_rpcs, "no RPC span attached to a compute span"


def test_span_ids_deterministic_across_runs():
    _, first = run_traced(n=6)
    _, second = run_traced(n=6)
    assert [span_key(s) for s in first.tracer.spans] == \
        [span_key(s) for s in second.tracer.spans]


def test_coverage_of_job_window():
    _, framework = run_traced(n=8)
    tracer = framework.tracer
    job = tracer.find("job")
    assert tracer.coverage(job.start_ms, job.end_ms) >= 0.95


def test_chrome_trace_export_is_valid(tmp_path):
    _, framework = run_traced(n=4)
    path = tmp_path / "trace.json"
    framework.tracer.write_chrome(str(path))
    doc = json.loads(path.read_text())

    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    names = {e["name"] for e in events if e["ph"] == "M"}
    assert "process_name" in names and "thread_name" in names
    for event in events:
        assert event["ph"] in ("X", "i", "M")
        if event["ph"] == "X":
            assert event["dur"] >= 0 and event["ts"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"

    # Virtual ms map to trace µs.
    job = framework.tracer.find("job")
    job_events = [e for e in events
                  if e["ph"] == "X" and e["name"] == "job"]
    assert job_events[0]["ts"] == round(job.start_ms * 1000.0, 3)


def test_jsonl_export_round_trips(tmp_path):
    _, framework = run_traced(n=4)
    path = tmp_path / "spans.jsonl"
    framework.tracer.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(framework.tracer.spans)
    parsed = [json.loads(line) for line in lines]
    assert {p["name"] for p in parsed} >= {"job", "task", "compute"}


def test_disabled_tracer_records_nothing():
    _, framework = run_traced(trace=False)
    tracer = framework.tracer
    assert not tracer.enabled
    assert tracer.spans == []
    # Unguarded callers still get a usable (null) span.
    span = tracer.start("anything", "t1")
    span.annotate(x=1)
    with span:
        pass
    assert tracer.spans == []


def test_tracing_does_not_perturb_virtual_time():
    """Trace IDs are minted whether or not spans are recorded, so entry
    bytes — and hence the per-KB latency model — are identical."""
    report_off, _ = run_traced(trace=False)
    report_on, _ = run_traced(trace=True)
    assert report_on.parallel_ms == report_off.parallel_ms
    assert report_on.planning_ms == report_off.planning_ms
    assert report_on.aggregation_ms == report_off.aggregation_ms
    assert report_on.solution == report_off.solution


# -- ambient span follows the simulated process, not the OS thread -------------


def test_timer_action_does_not_see_the_parked_process_span(rt):
    """A sleeping process's own thread runs the timer action inline."""
    tracer = Tracer(rt, enabled=True)
    seen = []

    def proc():
        span = tracer.start("compute", "app/1")
        with tracer.activate(span):
            rt.call_later(5.0, lambda: seen.append(tracer.current))
            rt.sleep(10.0)      # the only thread there is: runs the timer
            seen.append(tracer.current)

    rt.spawn(proc)
    rt.run()
    assert seen[0] is None
    assert seen[1] is not None and seen[1].name == "compute"


def test_next_tenant_of_a_carrier_starts_with_an_empty_span_stack(rt):
    """A process that dies with a span still active must not hand it to
    whichever process runs next on the same OS thread."""
    tracer = Tracer(rt, enabled=True)
    threads, seen = [], []

    def leaky():
        threads.append(threading.get_ident())
        tracer.activate(tracer.start("leaked", "app/1")).__enter__()

    def tenant():
        threads.append(threading.get_ident())
        seen.append(tracer.current)

    rt.spawn(leaky)
    rt.run()
    rt.spawn(tenant)
    rt.run()
    assert threads[0] == threads[1]         # same carrier thread
    assert seen == [None]


def test_threaded_runtime_keeps_span_stacks_per_thread():
    runtime = ThreadedRuntime()
    tracer = Tracer(runtime, enabled=True)
    seen = []
    with tracer.activate(tracer.start("main", "t/1")):
        worker = threading.Thread(target=lambda: seen.append(tracer.current))
        worker.start()
        worker.join(5.0)
        assert not worker.is_alive()
        assert tracer.current.name == "main"
    assert seen == [None] and tracer.current is None


def test_thread_that_dies_mid_activate_takes_its_span_stack_with_it():
    """The OS may hand a dead thread's ident to the next one started; the
    stack is keyed by the thread object, so nothing is inherited or kept."""
    tracer = Tracer(ThreadedRuntime(), enabled=True)
    seen = []

    def leaky():
        tracer.activate(tracer.start("leaked", "t/1")).__enter__()

    def heir():
        seen.append(tracer.current)

    for body in (leaky, heir):
        worker = threading.Thread(target=body)
        worker.start()
        worker.join(5.0)
        assert not worker.is_alive()
    del worker
    gc.collect()
    assert seen == [None]
    assert not tracer._stacks
