"""End-to-end telemetry: distributed tracing + unified metrics registry.

A framework holds the two halves side by side — a
:class:`~repro.telemetry.trace.Tracer` (per-task span trees) and a
:class:`~repro.telemetry.registry.Registry` (one namespace over the
per-component stats, read through at exposition time) — plus the
:class:`~repro.telemetry.slo.SloWatchdog` that evaluates its rules over
the registry in frames of virtual time, and the always-on
:class:`~repro.telemetry.blackbox.FlightRecorder`.
"""

from __future__ import annotations

from repro.telemetry.blackbox import FlightRecorder, PostmortemBundle
from repro.telemetry.console import cluster_snapshot, cluster_table
from repro.telemetry.doctor import DoctorReport, analyze_job
from repro.telemetry.registry import Histogram, Registry
from repro.telemetry.slo import DEFAULT_RULES, SloAlert, SloRule, SloWatchdog
from repro.telemetry.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "DEFAULT_RULES",
    "DoctorReport",
    "FlightRecorder",
    "Histogram",
    "NULL_SPAN",
    "PostmortemBundle",
    "Registry",
    "SloAlert",
    "SloRule",
    "SloWatchdog",
    "Span",
    "Tracer",
    "analyze_job",
    "cluster_snapshot",
    "cluster_table",
]
