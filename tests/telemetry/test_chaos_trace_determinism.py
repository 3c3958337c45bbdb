"""Tracing must not perturb the chaos campaigns' deterministic replay.

Trace IDs travel inside every entry whether or not tracing is enabled,
so the per-KB latency model sees identical bytes; these tests prove the
recovery traces and virtual timings are byte-identical with ``trace``
on and off, and that the traced run still yields usable artifacts.
"""

from __future__ import annotations

from repro.experiments.chaos import (
    chaos_experiment,
    coordination_chaos_experiment,
    verify_chaos_determinism,
)


def test_chaos_trace_on_off_identical():
    off = chaos_experiment(seed=11, tasks=12)
    on = chaos_experiment(seed=11, tasks=12,
                          trace=True)
    assert on.trace == off.trace
    assert on.report.solution == off.report.solution
    assert on.report.parallel_ms == off.report.parallel_ms
    assert on.correct and off.correct


def test_verify_determinism_passes_with_tracing():
    assert verify_chaos_determinism(seed=11, tasks=12,
                                    trace=True)


def test_traced_chaos_produces_artifacts():
    result = chaos_experiment(seed=11, tasks=12,
                              trace=True)
    tracer = result.tracer
    assert tracer is not None and tracer.enabled
    names = {s.name for s in tracer.spans}
    assert {"job", "task", "compute"} <= names
    # Failure paths annotate their spans rather than vanishing: the
    # poison task surfaces as an errored compute.
    errored = [s for s in tracer.spans
               if s.name == "compute" and s.attrs.get("status") == "error"]
    assert errored
    assert "space_writes" in result.prometheus

    untraced = chaos_experiment(seed=11, tasks=12)
    assert untraced.tracer is not None and not untraced.tracer.enabled
    assert untraced.tracer.spans == []


def test_coordination_chaos_trace_on_off_identical():
    kwargs = dict(seed=5, tasks=12, faults=("kill-primary-space",))
    off = coordination_chaos_experiment(**kwargs)
    on = coordination_chaos_experiment(trace=True, **kwargs)
    assert on.trace == off.trace
    assert on.aggregations == off.aggregations
    assert on.report.parallel_ms == off.report.parallel_ms
    assert on.exactly_once and off.exactly_once
    assert on.tracer.spans
