"""Flight recorder: bounded rings, auto-dump triggers, bundle contents."""

from __future__ import annotations

import json

from repro.experiments.chaos import coordination_chaos_experiment
from repro.runtime.simulated import SimulatedRuntime
from repro.telemetry.blackbox import TRIGGERS, FlightRecorder


class FakeSpan:
    def __init__(self, name, proc, start_ms, end_ms):
        self.name = name
        self.proc = proc
        self.start_ms = start_ms
        self.end_ms = end_ms

    def to_dict(self):
        return {"name": self.name, "proc": self.proc,
                "start_ms": self.start_ms, "end_ms": self.end_ms}


def test_span_ring_is_bounded_per_process():
    runtime = SimulatedRuntime()
    flight = FlightRecorder(runtime)
    emitted = 2 * FlightRecorder.SPAN_CAPACITY
    for i in range(emitted):
        flight._on_span(FakeSpan("task", "worker-0", float(i), float(i) + 1))
        flight._on_span(FakeSpan("task", "worker-1", float(i), float(i) + 1))
    bundle = flight.dump("manual")
    assert set(bundle.spans) == {"worker-0", "worker-1"}
    for spans in bundle.spans.values():
        assert len(spans) == FlightRecorder.SPAN_CAPACITY   # not emitted
        assert spans[-1]["start_ms"] == emitted - 1         # newest survive


def test_event_ring_is_bounded_and_dump_does_not_drain_it():
    runtime = SimulatedRuntime()
    flight = FlightRecorder(runtime)
    emitted = 2 * FlightRecorder.EVENT_CAPACITY
    for i in range(emitted):
        flight._on_event(float(i), "space-take", {"seq": i})
    first = flight.dump("manual")
    second = flight.dump("manual")
    assert len(first.events) == FlightRecorder.EVENT_CAPACITY
    assert first.events == second.events            # snapshot, not drain
    last = emitted - 1
    assert first.events[-1] == (float(last), "space-take", {"seq": last})


def test_promotion_event_auto_dumps_a_bundle():
    runtime = SimulatedRuntime()
    flight = FlightRecorder(runtime)
    assert "standby-promoted" in TRIGGERS
    flight._on_event(123.0, "standby-promoted", {"host": "space", "epoch": 2})
    assert len(flight.bundles) == 1
    bundle = flight.bundles[0]
    assert bundle.reason == "standby-promoted"
    assert bundle.trigger["epoch"] == 2
    assert bundle.trigger["name"] == "standby-promoted"


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
