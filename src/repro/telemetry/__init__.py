"""End-to-end telemetry: distributed tracing + unified metrics registry.

One :class:`Telemetry` object per framework bundles the two halves —
a :class:`~repro.telemetry.trace.Tracer` (per-task span trees) and a
:class:`~repro.telemetry.registry.Registry` (one namespace over the
per-component stats) — plus the optional periodic snapshotter that
mirrors registry values into the legacy ``Metrics`` series.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.telemetry.blackbox import FlightRecorder, PostmortemBundle
from repro.telemetry.console import cluster_snapshot, cluster_table
from repro.telemetry.doctor import DoctorReport, analyze_job
from repro.telemetry.registry import Histogram, MetricsSnapshotter, Registry
from repro.telemetry.slo import DEFAULT_RULES, SloAlert, SloRule, SloWatchdog
from repro.telemetry.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "DEFAULT_RULES",
    "DoctorReport",
    "FlightRecorder",
    "Histogram",
    "MetricsSnapshotter",
    "NULL_SPAN",
    "PostmortemBundle",
    "Registry",
    "SloAlert",
    "SloRule",
    "SloWatchdog",
    "Span",
    "Telemetry",
    "Tracer",
    "analyze_job",
    "cluster_snapshot",
    "cluster_table",
]


class Telemetry:
    """Tracer + registry pair bound to one runtime."""

    def __init__(self, runtime: Any, trace: bool = False) -> None:
        self.runtime = runtime
        self.tracer = Tracer(runtime, enabled=trace)
        self.registry = Registry()
        self.snapshotter: Optional[MetricsSnapshotter] = None

    def enable_snapshots(self, metrics: Any,
                         interval_ms: float = 1_000.0) -> bool:
        """Mirror registry values into ``metrics`` every ``interval_ms``
        of runtime time (sim runtime only; returns ``False`` elsewhere)."""
        self.snapshotter = MetricsSnapshotter(self.registry, metrics,
                                              interval_ms=interval_ms)
        return self.snapshotter.attach(self.runtime)

    def prometheus_text(self) -> str:
        return self.registry.prometheus_text()
