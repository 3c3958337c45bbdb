"""Experiment instrumentation.

A single collector shared across modules records time series, events and
scalars keyed by name — the quantities every figure in the paper plots
(worker times, planning/aggregation times, CPU usage histories, signal
reaction times).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional

from repro.runtime.base import Runtime

__all__ = ["Metrics"]


class Metrics:
    """Timestamped series / events / scalar store."""

    def __init__(self, runtime: Runtime) -> None:
        self._runtime = runtime
        self.series: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.events: list[tuple[float, str, dict[str, Any]]] = []
        self.scalars: dict[str, float] = {}
        #: Optional observer ``fn(now, name, payload)`` called after each
        #: event is appended (flight recorder / alert triggers).  Pure
        #: observation — it must not record further events.
        self.on_event: Optional[Any] = None

    def record(self, name: str, value: float) -> None:
        """Append ``(now, value)`` to the named series."""
        self.series[name].append((self._runtime.now(), float(value)))

    def event(self, name: str, **payload: Any) -> None:
        now = self._runtime.now()
        self.events.append((now, name, payload))
        if self.on_event is not None:
            self.on_event(now, name, payload)

    def scalar(self, name: str, value: float) -> None:
        self.scalars[name] = float(value)

    # -- queries ------------------------------------------------------------------

    def last(self, name: str) -> Optional[float]:
        values = self.series.get(name)
        return values[-1][1] if values else None

    def max(self, name: str) -> Optional[float]:
        values = self.series.get(name)
        return max(v for _, v in values) if values else None

    def events_named(self, name: str) -> list[tuple[float, dict[str, Any]]]:
        return [(t, payload) for t, n, payload in self.events if n == name]
