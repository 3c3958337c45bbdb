"""SLO watchdog: rule grammar, sustain hysteresis, rate/quantile reads."""

from __future__ import annotations

import pytest

from repro.telemetry.registry import Registry
from repro.telemetry.slo import DEFAULT_RULES, SloRule, SloWatchdog


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

def make_watchdog(rules):
    registry = Registry()
    watchdog = SloWatchdog(registry, rules=rules)
    return registry, watchdog


def expose(registry, name, value, **labels):
    """A read-through sample whose value the test sets: ``box[0]``."""
    box = [value]
    registry.expose(name, lambda: box[0], **labels)
    return box


def test_gauge_rule_fires_and_resolves():
    registry, watchdog = make_watchdog(["depth: q.depth > 10"])
    gauge = expose(registry, "q.depth", 5)
    watchdog.evaluate(1000.0)
    assert watchdog.alerts == []
    gauge[0] = 50
    watchdog.evaluate(2000.0)
    assert len(watchdog.alerts) == 1
    alert = watchdog.alerts[0]
    assert alert.active and alert.fired_ms == 2000.0 and alert.value == 50
    gauge[0] = 3
    watchdog.evaluate(3000.0)
    assert not alert.active and alert.resolved_ms == 3000.0
    assert watchdog.active == []


def test_sustain_requires_the_breach_to_hold():
    registry, watchdog = make_watchdog(["depth: q.depth > 10 for 2s"])
    gauge = expose(registry, "q.depth", 99)
    watchdog.evaluate(1000.0)       # breach starts
    watchdog.evaluate(2000.0)       # held 1s — not yet
    assert watchdog.alerts == []
    watchdog.evaluate(3000.0)       # held 2s — fires
    assert len(watchdog.alerts) == 1
    # A dip resets the clock: no refire until sustained again.
    gauge[0] = 0
    watchdog.evaluate(3500.0)
    gauge[0] = 99
    watchdog.evaluate(4000.0)
    watchdog.evaluate(5000.0)
    assert len(watchdog.alerts) == 1
    watchdog.evaluate(6000.0)
    assert len(watchdog.alerts) == 2


def test_gauge_reads_take_worst_across_label_sets():
    registry, watchdog = make_watchdog(["depth: q.depth > 10"])
    expose(registry, "q.depth", 1, shard="0")
    expose(registry, "q.depth", 11, shard="1")
    watchdog.evaluate(1000.0)
    assert len(watchdog.alerts) == 1 and watchdog.alerts[0].value == 11


def test_rate_rule_deltas_counter_totals_between_frames():
    registry, watchdog = make_watchdog(["sheds: shed.rate > 10"])
    total = expose(registry, "shed", 5)
    watchdog.evaluate(1000.0)       # first frame primes the baseline
    assert watchdog.alerts == []
    total[0] += 100                 # 100 in 1s = 100/s > 10
    watchdog.evaluate(2000.0)
    assert len(watchdog.alerts) == 1
    assert watchdog.alerts[0].value == pytest.approx(100.0)


def test_quantile_rule_reads_histogram_p99():
    registry, watchdog = make_watchdog(["tail: lat.p99 > 500"])
    hist = registry.histogram("lat")
    for _ in range(100):
        hist.observe(1.0)
    watchdog.evaluate(1000.0)
    assert watchdog.alerts == []
    for _ in range(100):
        hist.observe(10_000.0)
    watchdog.evaluate(2000.0)
    assert len(watchdog.alerts) == 1


def test_missing_metric_never_breaches():
    _, watchdog = make_watchdog(["ghost: does.not.exist > 0"])
    watchdog.evaluate(1000.0)
    watchdog.evaluate(2000.0)
    assert watchdog.alerts == []


def test_events_and_to_dict_reporting():
    class Events:
        def __init__(self):
            self.seen = []

        def event(self, name, **payload):
            self.seen.append((name, payload))

    registry = Registry()
    events = Events()
    watchdog = SloWatchdog(registry, rules=["depth: q.depth > 10"],
                           metrics=events)
    gauge = expose(registry, "q.depth", 42)
    watchdog.evaluate(1000.0)
    gauge[0] = 0
    watchdog.evaluate(2000.0)
    names = [name for name, _ in events.seen]
    assert names == ["slo-alert", "slo-resolved"]
    doc = watchdog.to_dict()
    assert doc["rules"] == ["depth: q.depth > 10"]
    assert doc["alerts"][0]["rule"] == "depth"
    assert doc["alerts"][0]["resolved_ms"] == 2000.0
