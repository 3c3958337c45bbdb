"""Always-on black-box flight recorder and postmortem bundles.

Aircraft keep a flight recorder running whether or not anyone expects a
crash; so does this cluster.  The :class:`FlightRecorder` rings the most
recent spans (per simulated process) and metrics events through bounded
deques, costing O(1) per record and a fixed memory ceiling — cheap
enough to leave on for every chaos campaign.  When something goes wrong
— a supervisor promotes a standby, a checker gate fails, a determinism
replay diverges — :meth:`dump` freezes the rings plus the surrounding
context (Prometheus metrics text, checker-history tail, the fault plan
that was running) into a :class:`PostmortemBundle` that CI uploads as an
artifact, so the failure is debuggable without re-running the campaign.

Determinism: the recorder only *observes* hooks that already fire
(``Metrics.on_event``, ``Tracer.sink``); it schedules nothing, reads no
clock of its own, and its rings never feed back into the run.  The
byte-identical-with-tracing-off invariant is untouched — with tracing
off the span ring simply stays empty while events still record.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["FlightRecorder", "PostmortemBundle"]

#: Metrics events that trip an automatic postmortem dump.  Promotion is
#: the flagship: a standby taking over means the primary died, and the
#: moments leading up to that death are exactly what the ring holds.
TRIGGERS = ("standby-promoted",)


@dataclass
class PostmortemBundle:
    """One frozen snapshot of recent history around an incident."""

    reason: str
    t_ms: float
    trigger: Optional[dict] = None
    alerts: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)     # proc -> [span dicts]
    events: list = field(default_factory=list)    # (t, name, payload)
    metrics_text: str = ""
    history: Optional[dict] = None
    fault_plan: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "t_ms": self.t_ms,
            "trigger": self.trigger,
            "alerts": list(self.alerts),
            "spans": self.spans,
            "events": [
                {"t_ms": t, "name": name, "payload": payload}
                for t, name, payload in self.events
            ],
            "metrics": self.metrics_text,
            "history": self.history,
            "fault_plan": self.fault_plan,
        }

    def write(self, path: str) -> str:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True,
                      default=repr)
            fh.write("\n")
        return path


class FlightRecorder:
    """Bounded ring buffers of recent spans/events, dumpable on demand."""

    def __init__(self, runtime: Any, span_capacity: int = 256,
                 event_capacity: int = 512,
                 history_tail: int = 64) -> None:
        self.runtime = runtime
        self.span_capacity = int(span_capacity)
        self.event_capacity = int(event_capacity)
        self.history_tail = int(history_tail)
        self.bundles: list[PostmortemBundle] = []
        self.fault_plan: Optional[dict] = None
        self.watchdog: Any = None
        self._spans: dict[str, deque] = {}
        self._events: deque = deque(maxlen=self.event_capacity)
        self._metrics: Any = None
        self._tracer: Any = None
        self._registry: Any = None
        self._history: Any = None

    # -- wiring --------------------------------------------------------------

    def attach(self, metrics: Any = None, tracer: Any = None,
               registry: Any = None, history: Any = None) -> None:
        """Hook the observation points.  Any subset may be None."""
        if metrics is not None:
            self._metrics = metrics
            metrics.on_event = self._on_event
        if tracer is not None:
            self._tracer = tracer
            tracer.sink = self._on_span
        self._registry = registry
        if history is not None:
            self._history = history

    # -- ring writers --------------------------------------------------------

    def _on_span(self, span: Any) -> None:
        proc = span.proc if span.proc is not None else "-"
        ring = self._spans.get(proc)
        if ring is None:
            ring = self._spans[proc] = deque(maxlen=self.span_capacity)
        ring.append(span)

    def _on_event(self, now: float, name: str, payload: dict) -> None:
        self._events.append((now, name, payload))
        if name in TRIGGERS:
            self.dump(reason=name,
                      trigger={"name": name, "t_ms": now, **payload})

    # -- dumping -------------------------------------------------------------

    def dump(self, reason: str,
             trigger: Optional[dict] = None) -> PostmortemBundle:
        """Freeze the rings into a bundle (and keep it on ``bundles``)."""
        spans = {proc: [span.to_dict() for span in ring]
                 for proc, ring in sorted(self._spans.items())}
        alerts = []
        if self.watchdog is not None:
            alerts = [a.to_dict() for a in self.watchdog.alerts]
        metrics_text = ""
        if self._registry is not None:
            metrics_text = self._registry.prometheus_text()
        history = None
        if self._history is not None:
            ops = getattr(self._history, "ops", [])
            tail = ops[-self.history_tail:]
            history = {
                "total_ops": len(ops),
                "tail": [
                    {"op": op.op, "entry_class": op.entry_class,
                     "key": op.key, "client": op.client,
                     "invoked_ms": op.invoked_ms,
                     "responded_ms": op.responded_ms,
                     "status": op.status, "count": op.count}
                    for op in tail
                ],
            }
        bundle = PostmortemBundle(
            reason=reason,
            t_ms=self.runtime.now(),
            trigger=trigger,
            alerts=alerts,
            spans=spans,
            events=list(self._events),
            metrics_text=metrics_text,
            history=history,
            fault_plan=self.fault_plan,
        )
        self.bundles.append(bundle)
        return bundle
