"""SLO watchdog: rule grammar, sustain hysteresis, rate/quantile reads,
and its frames on the virtual clock."""

from __future__ import annotations

import pytest

from repro.core.metrics import Metrics
from repro.runtime.simulated import SimulatedRuntime
from repro.telemetry.registry import Registry
from repro.telemetry.slo import DEFAULT_RULES, SloRule, SloWatchdog
from repro.telemetry.trace import Tracer
from tests.conftest import run_in_sim


# -- grammar ------------------------------------------------------------------

def test_parse_gauge_rule_with_sustain():
    rule = SloRule.parse("queue-depth: space.queue_depth > 5000 for 2s")
    assert rule.name == "queue-depth"
    assert rule.metric == "space.queue_depth"
    assert rule.op == ">" and rule.threshold == 5000.0
    assert rule.mode is None and rule.sustain_ms == 2000.0


def test_parse_rate_and_quantile_modes():
    rate = SloRule.parse("sheds: admission.shed.rate > 100 for 500ms")
    assert rate.mode == "rate" and rate.sustain_ms == 500.0
    p99 = SloRule.parse("tail: task.latency_ms.p99 > 60000")
    assert p99.mode == "p99" and p99.sustain_ms == 0.0
    low = SloRule.parse("throughput: space.takes < 1")
    assert low.op == "<"


def test_parse_rejects_malformed_rules():
    for bogus in ("no-colon space.queue_depth > 5",
                  "name: metric >= 5",          # only > and < exist
                  "name: metric > ",
                  "name: metric > 5 for 2h"):   # only s/ms units
        with pytest.raises(ValueError):
            SloRule.parse(bogus)


def test_describe_round_trips_through_parse():
    for rule in DEFAULT_RULES:
        assert SloRule.parse(rule.describe()) == rule


# -- evaluation ---------------------------------------------------------------
#
# The watchdog evaluates DEFAULT_RULES: each mode has one there.
#   queue-depth, replication-lag   gauges, sustained 2 s and 1 s
#   admission-shed                 a counter's rate, sustained 1 s
#   task-latency-p99               a histogram's p99, at once


class Events:
    """An event log without a clock: what the watchdog reported."""

    def __init__(self):
        self.seen = []

    def event(self, name, **payload):
        self.seen.append((name, payload))


def make_watchdog(events=None):
    registry = Registry()
    return registry, SloWatchdog(registry, events or Events(), Tracer(None))


def expose(registry, name, value, **labels):
    """A read-through sample whose value the test sets: ``box[0]``."""
    box = [value]
    registry.expose(name, lambda: box[0], **labels)
    return box


def test_gauge_rule_fires_and_resolves():
    registry, watchdog = make_watchdog()
    gauge = expose(registry, "space.replication_lag", 5)
    watchdog.evaluate(1000.0)
    assert watchdog.alerts == []
    gauge[0] = 500
    watchdog.evaluate(2000.0)       # breach starts
    assert watchdog.alerts == []
    watchdog.evaluate(3000.0)       # held 1s — fires
    assert len(watchdog.alerts) == 1
    alert = watchdog.alerts[0]
    assert alert.active and alert.fired_ms == 3000.0 and alert.value == 500
    gauge[0] = 3
    watchdog.evaluate(4000.0)
    assert not alert.active and alert.resolved_ms == 4000.0
    assert watchdog.active == []


def test_sustain_requires_the_breach_to_hold():
    registry, watchdog = make_watchdog()
    gauge = expose(registry, "space.queue_depth", 9999)
    watchdog.evaluate(1000.0)       # breach starts
    watchdog.evaluate(2000.0)       # held 1s — not yet
    assert watchdog.alerts == []
    watchdog.evaluate(3000.0)       # held 2s — fires
    assert len(watchdog.alerts) == 1
    # A dip resets the clock: no refire until sustained again.
    gauge[0] = 0
    watchdog.evaluate(3500.0)
    gauge[0] = 9999
    watchdog.evaluate(4000.0)
    watchdog.evaluate(5000.0)
    assert len(watchdog.alerts) == 1
    watchdog.evaluate(6000.0)
    assert len(watchdog.alerts) == 2


def test_gauge_reads_take_worst_across_label_sets():
    registry, watchdog = make_watchdog()
    expose(registry, "space.replication_lag", 1, shard="0")
    expose(registry, "space.replication_lag", 300, shard="1")
    watchdog.evaluate(1000.0)
    watchdog.evaluate(2000.0)
    assert len(watchdog.alerts) == 1 and watchdog.alerts[0].value == 300


def test_rate_rule_deltas_counter_totals_between_frames():
    registry, watchdog = make_watchdog()
    total = expose(registry, "admission.shed", 5)
    watchdog.evaluate(1000.0)       # first frame primes the baseline
    total[0] += 1000                # 1000 in 1s = 1000/s > 100
    watchdog.evaluate(2000.0)       # breach starts
    total[0] += 1000
    watchdog.evaluate(3000.0)       # held 1s — fires
    assert len(watchdog.alerts) == 1
    assert watchdog.alerts[0].value == pytest.approx(1000.0)


def test_quantile_rule_reads_histogram_p99():
    registry, watchdog = make_watchdog()
    hist = registry.histogram("task.latency_ms")
    for _ in range(100):
        hist.observe(1.0)
    watchdog.evaluate(1000.0)
    assert watchdog.alerts == []
    for _ in range(100):
        hist.observe(100_000.0)
    watchdog.evaluate(2000.0)
    assert len(watchdog.alerts) == 1


def test_missing_metric_never_breaches():
    _, watchdog = make_watchdog()
    watchdog.evaluate(1000.0)
    watchdog.evaluate(2000.0)
    assert watchdog.alerts == []


def test_events_and_to_dict_reporting():
    events = Events()
    registry, watchdog = make_watchdog(events)
    gauge = expose(registry, "space.replication_lag", 420)
    watchdog.evaluate(1000.0)
    watchdog.evaluate(2000.0)
    gauge[0] = 0
    watchdog.evaluate(3000.0)
    names = [name for name, _ in events.seen]
    assert names == ["slo-alert", "slo-resolved"]
    doc = watchdog.to_dict()
    assert doc["rules"] == [rule.describe() for rule in DEFAULT_RULES]
    assert doc["alerts"][0]["rule"] == "replication-lag"
    assert doc["alerts"][0]["resolved_ms"] == 3000.0


# -- frames -------------------------------------------------------------------


def ticking(rt):
    """A process that wakes at 0, 100, ..., 500 virtual ms."""
    def body():
        for _ in range(5):
            rt.sleep(100.0)
    return body


def watch(rt, interval_ms):
    """A watchdog attached at ``interval_ms``; returns the virtual
    instants at which it evaluates (it reads the registry once a frame)."""
    registry, frames = Registry(), []
    registry.expose("space.queue_depth",
                    lambda: frames.append(rt.now()) or 0)
    SloWatchdog(registry, Metrics(rt), Tracer(rt)).attach(rt, interval_ms)
    return frames


def test_watchdog_frames_ride_kernel_advance(rt):
    every_instant, every_250ms = watch(rt, 100.0), watch(rt, 250.0)
    run_in_sim(rt, ticking(rt))
    assert every_instant == [0.0, 100.0, 200.0, 300.0, 400.0, 500.0]
    # The first instant at least 250 ms after the last frame.
    assert every_250ms == [0.0, 300.0]


def test_watchdog_schedules_nothing():
    events = []
    for attached in (False, True):
        runtime = SimulatedRuntime()
        frames = watch(runtime, 100.0) if attached else []
        run_in_sim(runtime, ticking(runtime))
        events.append((runtime.kernel.events, runtime.now()))
        runtime.shutdown()
        assert bool(frames) == attached
    assert events[0] == events[1]


def test_watchdog_chains_existing_hook(rt):
    seen = []
    rt.kernel.on_advance = seen.append
    frames = watch(rt, 1000.0)
    run_in_sim(rt, lambda: rt.sleep(50.0))
    assert seen == [0.0, 50.0], "previous on_advance hook was dropped"
    assert frames == [0.0]

