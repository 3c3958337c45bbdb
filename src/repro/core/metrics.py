"""Experiment instrumentation: the event log.

A single log shared across modules records timestamped, named events —
the signal, failover, retry and recovery facts every figure and
postmortem of the paper's evaluation reads back.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.runtime.base import Runtime

__all__ = ["Metrics"]


class Metrics:
    """Timestamped event log."""

    def __init__(self, runtime: Runtime) -> None:
        self._runtime = runtime
        self.events: list[tuple[float, str, dict[str, Any]]] = []
        #: Optional observer ``fn(now, name, payload)`` called after each
        #: event is appended (flight recorder / alert triggers).  Pure
        #: observation — it must not record further events.
        self.on_event: Optional[Any] = None

    def event(self, name: str, **payload: Any) -> None:
        now = self._runtime.now()
        self.events.append((now, name, payload))
        if self.on_event is not None:
            self.on_event(now, name, payload)

    def events_named(self, name: str) -> list[tuple[float, dict[str, Any]]]:
        return [(t, payload) for t, n, payload in self.events if n == name]
