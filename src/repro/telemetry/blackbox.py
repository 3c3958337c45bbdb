"""Always-on black-box flight recorder and postmortem bundles.

Aircraft keep a flight recorder running whether or not anyone expects a
crash; so does this cluster, at no cost per record: the
:class:`FlightRecorder` keeps no copy, and reads the newest
``EVENT_CAPACITY`` events of the event log and the newest
``SPAN_CAPACITY`` spans per simulated process of the tracer at dump
time.  When something goes wrong — a supervisor promotes a standby, a
checker gate fails, a determinism replay diverges — :meth:`dump`
freezes those plus the surrounding context (Prometheus metrics text,
checker-history tail, the fault plan that was running) into a
:class:`PostmortemBundle` that CI uploads as an artifact, so the
failure is debuggable without re-running the campaign.

Determinism: the recorder only *observes* — its one hook,
``Metrics.on_event``, checks each event for a trigger; it schedules
nothing and reads no clock of its own.  With tracing off a bundle's
spans are simply empty while its events still record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["FlightRecorder", "PostmortemBundle"]

#: Metrics events that trip an automatic postmortem dump.  Promotion is
#: the flagship: a standby taking over means the primary died, and the
#: moments leading up to that death are exactly what a bundle holds.
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
    """Reads the newest spans and events of the run, dumpable on demand."""

    #: Spans kept per process, events kept in all, and history operations
    #: a bundle carries (the newest of each).
    SPAN_CAPACITY = 256
    EVENT_CAPACITY = 512
    HISTORY_TAIL = 64

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime
        self.bundles: list[PostmortemBundle] = []
        self.fault_plan: Optional[dict] = None
        self.watchdog: Any = None
        self._metrics: Any = None
        self._tracer: Any = None
        self._registry: Any = None
        self._history: Any = None

    # -- wiring --------------------------------------------------------------

    def attach(self, metrics: Any, tracer: Any, registry: Any,
               history: Any) -> None:
        """Hook the trigger check onto the event log and keep what a
        bundle reads (``history`` may be None: the run records none)."""
        metrics.on_event = self._on_event
        self._metrics = metrics
        self._tracer = tracer
        self._registry = registry
        self._history = history

    def _on_event(self, now: float, name: str, payload: dict) -> None:
        if name in TRIGGERS:
            self.dump(reason=name,
                      trigger={"name": name, "t_ms": now, **payload})

    # -- dumping -------------------------------------------------------------

    def dump(self, reason: str,
             trigger: Optional[dict] = None) -> PostmortemBundle:
        """Freeze the newest spans and events into a kept bundle."""
        by_proc: dict[str, list] = {}
        for span in self._tracer.spans:
            proc = span.proc if span.proc is not None else "-"
            by_proc.setdefault(proc, []).append(span)
        spans = {proc: [span.to_dict()
                        for span in group[-self.SPAN_CAPACITY:]]
                 for proc, group in sorted(by_proc.items())}
        alerts = ([a.to_dict() for a in self.watchdog.alerts]
                  if self.watchdog is not None else [])
        history = None
        if self._history is not None:
            ops = getattr(self._history, "ops", [])
            tail = ops[-self.HISTORY_TAIL:]
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
            events=self._metrics.events[-self.EVENT_CAPACITY:],
            metrics_text=self._registry.prometheus_text(),
            history=history,
            fault_plan=self.fault_plan,
        )
        self.bundles.append(bundle)
        return bundle
