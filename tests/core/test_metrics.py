"""Event log unit tests."""

from __future__ import annotations

from repro.core.metrics import Metrics
from tests.conftest import run_in_sim


def test_event_payloads(rt):
    metrics = Metrics(rt)

    def proc():
        metrics.event("signal-sent", worker="w1", signal="start")
        rt.sleep(5.0)
        metrics.event("signal-sent", worker="w2", signal="stop")
        metrics.event("other", x=1)

    run_in_sim(rt, proc)
    sent = metrics.events_named("signal-sent")
    assert len(sent) == 2
    assert sent[0] == (0.0, {"worker": "w1", "signal": "start"})
    assert metrics.events_named("missing") == []
