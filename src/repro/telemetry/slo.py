"""Declarative SLO watchdogs evaluated in frames of virtual time.

An :class:`SloWatchdog` holds a handful of :class:`SloRule` objects —
written in a one-line grammar, see :meth:`SloRule.parse` — and evaluates
them against the registry once per frame (see :meth:`SloWatchdog.attach`).
Because frames ride the kernel's ``on_advance`` hook, rule evaluation
schedules no events and reads instruments that already exist: enabling
watchdogs cannot perturb a deterministic run's timeline, and with a
fixed seed the same alerts fire at the same virtual times every run.

Rule grammar::

    <name>: <metric>[.rate|.pNN] (>|<) <threshold> [for <N>s|<N>ms]

- ``metric`` is a registry sample name (``space.queue_depth``,
  ``admission.shed`` …).  When several label sets exist, gauge/quantile
  reads take the **max** across them (an SLO on queue depth means "any
  shard too deep"), while ``.rate`` sums totals first (sheds/sec is a
  cluster-wide rate).
- ``.rate`` turns a counter into a per-second rate between frames.
- ``.pNN`` reads quantile NN of a histogram (``task.latency_ms.p99``).
- ``for Ns`` requires the breach to *sustain* that long before firing
  (hysteresis against one-frame spikes).

Alerts land in three places: :attr:`SloWatchdog.alerts` (the pane that
``repro top`` renders), a ``slo-alert`` metrics event, and — when
tracing is on — an ``slo.alert`` instant span in the trace.  The
``slo-alert`` event name is deliberately **not** in the chaos
determinism-compared event set: alerts are derived observations, and
comparing them would double-count any divergence already caught by the
primary events.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["SloRule", "SloAlert", "SloWatchdog", "DEFAULT_RULES"]

_RULE_RE = re.compile(
    r"^\s*(?P<name>[\w.-]+)\s*:\s*"
    r"(?P<metric>[\w./-]+?)"
    r"(?:\.(?P<mode>rate|p\d{1,2}))?\s*"
    r"(?P<op>[<>])\s*"
    r"(?P<threshold>-?\d+(?:\.\d+)?)"
    r"(?:\s+for\s+(?P<sustain>\d+(?:\.\d+)?)\s*(?P<unit>m?s))?\s*$")


@dataclass(frozen=True)
class SloRule:
    """One declarative service-level objective."""

    name: str
    metric: str
    op: str                      # ">" or "<"
    threshold: float
    mode: Optional[str] = None   # None | "rate" | "pNN"
    sustain_ms: float = 0.0

    @classmethod
    def parse(cls, text: str) -> "SloRule":
        """Parse ``"queue-depth: space.queue_depth > 5000 for 2s"``."""
        match = _RULE_RE.match(text)
        if match is None:
            raise ValueError(f"unparseable SLO rule: {text!r}")
        sustain_ms = 0.0
        if match["sustain"] is not None:
            sustain_ms = float(match["sustain"])
            if match["unit"] == "s":
                sustain_ms *= 1000.0
        return cls(name=match["name"], metric=match["metric"],
                   op=match["op"], threshold=float(match["threshold"]),
                   mode=match["mode"], sustain_ms=sustain_ms)

    def describe(self) -> str:
        metric = self.metric if self.mode is None \
            else f"{self.metric}.{self.mode}"
        text = f"{self.name}: {metric} {self.op} {self.threshold:g}"
        if self.sustain_ms:
            text += f" for {self.sustain_ms:g}ms"
        return text

    def breached(self, value: float) -> bool:
        return value > self.threshold if self.op == ">" \
            else value < self.threshold


@dataclass
class SloAlert:
    """One firing (or resolved) rule instance."""

    rule: SloRule
    fired_ms: float
    value: float
    resolved_ms: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.resolved_ms is None

    def to_dict(self) -> dict:
        out = {"rule": self.rule.name, "metric": self.rule.metric,
               "op": self.rule.op, "threshold": self.rule.threshold,
               "fired_ms": self.fired_ms, "value": self.value}
        if self.resolved_ms is not None:
            out["resolved_ms"] = self.resolved_ms
        return out


#: The objectives the framework watches by default; each maps to a
#: failure mode an earlier PR introduced machinery for (backlogs, lagging
#: standbys, fenced zombies, admission sheds, tail latency).
DEFAULT_RULES = (
    SloRule.parse("queue-depth: space.queue_depth > 5000 for 2s"),
    SloRule.parse("replication-lag: space.replication_lag > 256 for 1s"),
    SloRule.parse("fenced-rpcs: space.fenced_rpcs.rate > 10 for 1s"),
    SloRule.parse("admission-shed: admission.shed.rate > 100 for 1s"),
    SloRule.parse("task-latency-p99: task.latency_ms.p99 > 60000"),
)


@dataclass
class _RuleState:
    breach_since: Optional[float] = None
    prev_total: Optional[float] = None
    prev_ms: Optional[float] = None
    active: Optional[SloAlert] = None


class SloWatchdog:
    """Evaluate :data:`DEFAULT_RULES` against a registry, once per frame;
    alerts go to the event log ``metrics`` and, traced, to ``tracer``."""

    def __init__(self, registry: Any, metrics: Any, tracer: Any) -> None:
        self.registry = registry
        self.metrics = metrics
        self.tracer = tracer
        self.alerts: list[SloAlert] = []
        self._states = {rule.name: _RuleState() for rule in DEFAULT_RULES}

    # -- wiring --------------------------------------------------------------

    def attach(self, runtime: Any, interval_ms: float) -> None:
        """Evaluate at the first virtual instant and then at the first
        one at least ``interval_ms`` after the last frame.

        Chains onto the sim kernel's ``on_advance`` hook — called once per
        distinct virtual time — rather than scheduling events, so frames
        cannot change the event schedule.  A runtime without a kernel
        (threaded) gets no frames.
        """
        kernel = getattr(runtime, "kernel", None)
        if kernel is None:
            return
        previous = kernel.on_advance
        last_ms: Optional[float] = None

        def frame(now_ms: float) -> None:
            nonlocal last_ms
            if previous is not None:
                previous(now_ms)
            if last_ms is None or now_ms - last_ms >= interval_ms:
                last_ms = now_ms
                self.evaluate(now_ms)

        kernel.on_advance = frame

    # -- queries -------------------------------------------------------------

    @property
    def active(self) -> list[SloAlert]:
        return [a for a in self.alerts if a.active]

    def to_dict(self) -> dict:
        return {"rules": [r.describe() for r in DEFAULT_RULES],
                "alerts": [a.to_dict() for a in self.alerts]}

    # -- evaluation ----------------------------------------------------------

    def _read(self, rule: SloRule, samples: dict,
              now_ms: float, state: _RuleState) -> Optional[float]:
        """The rule's current value, or None when unreadable this frame."""
        rows = samples.get(rule.metric)
        if not rows:
            return None
        if rule.mode is None:
            # Worst (max) value across label sets: "any shard too deep".
            return max(_scalar(instrument) for _, instrument in rows)
        if rule.mode == "rate":
            # Cluster-wide rate: sum totals, then delta against the
            # previous frame.  First frame only primes the baseline.
            total = sum(_scalar(instrument) for _, instrument in rows)
            prev_total, prev_ms = state.prev_total, state.prev_ms
            state.prev_total, state.prev_ms = total, now_ms
            if prev_total is None or now_ms <= prev_ms:
                return None
            return (total - prev_total) / (now_ms - prev_ms) * 1000.0
        # pNN — max across label sets, same "worst case" reading.
        q = int(rule.mode[1:]) / 100.0
        quantiles = [instrument.quantile(q) for _, instrument in rows
                     if hasattr(instrument, "quantile")]
        return max(quantiles) if quantiles else None

    def evaluate(self, now_ms: float) -> None:
        """Evaluate every rule against the registry's current samples."""
        samples: dict[str, list] = {}
        for name, labels, kind, instrument in self.registry.samples():
            samples.setdefault(name, []).append((labels, instrument))
        for rule in DEFAULT_RULES:
            state = self._states[rule.name]
            value = self._read(rule, samples, now_ms, state)
            breached = value is not None and rule.breached(value)
            if breached:
                if state.breach_since is None:
                    state.breach_since = now_ms
                sustained = now_ms - state.breach_since >= rule.sustain_ms
                if sustained and state.active is None:
                    self._fire(rule, state, now_ms, value)
            else:
                state.breach_since = None
                if state.active is not None:
                    self._resolve(rule, state, now_ms)

    def _fire(self, rule: SloRule, state: _RuleState,
              now_ms: float, value: float) -> None:
        alert = SloAlert(rule=rule, fired_ms=now_ms, value=value)
        self.alerts.append(alert)
        state.active = alert
        self.metrics.event("slo-alert", rule=rule.name, metric=rule.metric,
                           value=value, threshold=rule.threshold)
        if self.tracer.enabled:
            self.tracer.instant("slo.alert", trace_id="slo", proc="slo",
                                rule=rule.name, value=value,
                                threshold=rule.threshold)

    def _resolve(self, rule: SloRule, state: _RuleState,
                 now_ms: float) -> None:
        state.active.resolved_ms = now_ms
        state.active = None
        self.metrics.event("slo-resolved", rule=rule.name)


def _scalar(instrument: Any) -> float:
    if hasattr(instrument, "quantile"):   # histogram without .pNN mode
        return float(instrument.count)
    return float(instrument)
