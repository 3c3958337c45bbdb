"""Flight recorder: the newest N of the log and the span list, auto-dump
triggers, bundle contents."""

from __future__ import annotations

import json

from repro.core.metrics import Metrics
from repro.experiments.chaos import coordination_chaos_experiment
from repro.telemetry import Registry, Tracer
from repro.telemetry.blackbox import TRIGGERS, FlightRecorder


class Clock:
    """A settable stand-in for the runtime's clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def attached():
    """A recorder hooked onto a real event log and an enabled tracer."""
    clock = Clock()
    metrics, tracer = Metrics(clock), Tracer(clock, enabled=True)
    flight = FlightRecorder(clock)
    flight.attach(metrics=metrics, tracer=tracer, registry=Registry(),
                  history=None)
    return clock, metrics, tracer, flight


def test_span_capacity_is_per_process():
    _, _, tracer, flight = attached()
    emitted = 2 * FlightRecorder.SPAN_CAPACITY
    for i in range(emitted):
        for proc in ("worker-0", "worker-1"):
            tracer.record("task", "t", float(i), float(i) + 1, proc=proc)
    bundle = flight.dump("manual")
    assert set(bundle.spans) == {"worker-0", "worker-1"}
    for spans in bundle.spans.values():
        assert len(spans) == FlightRecorder.SPAN_CAPACITY   # not emitted
        assert spans[-1]["start_ms"] == emitted - 1         # newest survive
    assert len(tracer.spans) == 2 * emitted


def test_event_capacity_holds_and_dump_does_not_drain_the_log():
    clock, metrics, _, flight = attached()
    emitted = 2 * FlightRecorder.EVENT_CAPACITY
    for i in range(emitted):
        clock.t = float(i)
        metrics.event("space-take", seq=i)
    first = flight.dump("manual")
    second = flight.dump("manual")
    assert len(first.events) == FlightRecorder.EVENT_CAPACITY
    assert first.events == second.events            # snapshot, not drain
    last = emitted - 1
    assert first.events[-1] == (float(last), "space-take", {"seq": last})
    assert len(metrics.events) == emitted


def test_promotion_event_auto_dumps_a_bundle():
    clock, metrics, _, flight = attached()
    assert "standby-promoted" in TRIGGERS
    clock.t = 123.0
    metrics.event("standby-promoted", host="space", epoch=2)
    assert len(flight.bundles) == 1
    bundle = flight.bundles[0]
    assert bundle.reason == "standby-promoted"
    assert bundle.trigger["epoch"] == 2
    assert bundle.trigger["name"] == "standby-promoted"
    assert bundle.trigger["t_ms"] == 123.0


def test_kill_primary_campaign_produces_promotion_postmortem(tmp_path):
    result = coordination_chaos_experiment(
        seed=42, faults=("kill-primary-space",))
    assert result.report.complete
    bundles = result.postmortems
    assert bundles, "expected the promotion to auto-dump a postmortem"
    promo = [b for b in bundles if b.reason == "standby-promoted"]
    assert promo, [b.reason for b in bundles]
    bundle = promo[0]
    assert bundle.trigger["name"] == "standby-promoted"
    assert bundle.fault_plan, "bundle should carry the fault plan"
    assert bundle.spans or bundle.events, "bundle should carry recent history"
    # The bundle round-trips through JSON (the CI artifact format).
    path = tmp_path / "postmortem.json"
    bundle.write(path)
    doc = json.loads(path.read_text())
    assert doc["reason"] == "standby-promoted"
    assert doc["trigger"]["name"] == "standby-promoted"
    assert doc["fault_plan"]
    assert "metrics" in doc


def test_postmortems_are_deterministic_across_replays():
    a = coordination_chaos_experiment(seed=7, faults=("kill-primary-space",))
    b = coordination_chaos_experiment(seed=7, faults=("kill-primary-space",))
    dumps_a = [json.dumps(x.to_dict(), sort_keys=True, default=repr)
               for x in a.postmortems]
    dumps_b = [json.dumps(x.to_dict(), sort_keys=True, default=repr)
               for x in b.postmortems]
    assert dumps_a == dumps_b and dumps_a
