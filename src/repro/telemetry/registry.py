"""Unified metrics registry: one namespace over every component's counters.

The per-component ``stats`` dicts (space, WAL, proxy, netmgmt, network)
grew organically and are disjoint; the :class:`Registry` absorbs them
behind labeled names with a single naming scheme
(``<component>.<counter>``, e.g. ``space.writes``, ``wal.syncs``,
``netmgmt.polls``).  Components keep their cheap plain-attribute
counters on the hot path — the registry reads them lazily through
*collectors* (:meth:`Registry.expose`, :meth:`Registry.expose_dict`) at
exposition time, so registration costs nothing per op.  The one typed
instrument is the :class:`Histogram` — HDR-style log-bucketed
distribution with deterministic (RNG-free) quantile estimation: 8
sub-buckets per octave bound the relative quantile error by
``2**(1/8)`` (≈ 9%).

Exposition: :meth:`Registry.prometheus_text` renders the Prometheus
text format; :class:`MetricsSnapshotter` periodically snapshots every
instrument into the existing :class:`repro.core.metrics.Metrics` series
(riding the sim kernel's ``on_advance`` hook, so snapshots consume no
kernel events and cannot perturb deterministic schedules).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping, Optional

__all__ = ["Histogram", "Registry", "MetricsSnapshotter"]


class Histogram:
    """Log-bucketed histogram with deterministic quantiles.

    Buckets are geometric with ``SUB_BUCKETS`` per octave: a positive
    value ``v`` lands in bucket ``floor(log2(v) * SUB_BUCKETS)``, whose
    upper edge is ``2 ** ((i + 1) / SUB_BUCKETS)``.  ``quantile`` returns
    that upper edge (clamped to the observed max), so the estimate always
    satisfies ``true_q <= est <= true_q * 2**(1/SUB_BUCKETS)`` — no
    reservoir, no RNG, O(1) memory per occupied bucket.
    """

    __slots__ = ("count", "sum", "min", "max", "_zero", "_buckets")
    SUB_BUCKETS = 8

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zero = 0  # observations <= 0
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self._zero += 1
            return
        index = math.floor(math.log2(value) * self.SUB_BUCKETS)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound on the q-quantile (nearest-rank), within one
        sub-bucket (relative factor ``2**(1/8)``) of the true value."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = self._zero
        if rank <= seen:
            return min(0.0, self.max)
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                upper = 2.0 ** ((index + 1) / self.SUB_BUCKETS)
                return min(upper, self.max)
        return self.max

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_edge, count)`` pairs for exposition."""
        out = []
        cumulative = self._zero
        if self._zero:
            out.append((0.0, cumulative))
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            out.append((2.0 ** ((index + 1) / self.SUB_BUCKETS), cumulative))
        return out


def _label_key(labels: Mapping[str, str]) -> tuple:
    return tuple(sorted(labels.items()))


def _mangle(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    mangled = "".join(out)
    if mangled and mangled[0].isdigit():
        mangled = "_" + mangled
    return mangled


def _fmt(value: float) -> str:
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Registry:
    """Get-or-create home for every histogram, plus lazy collectors."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, tuple], Histogram] = {}
        self._collectors: list[Callable[[], Iterable[tuple[str, dict, float]]]] = []

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = Histogram()
        return instrument

    # -- lazy collectors -----------------------------------------------------

    def expose(self, name: str, fn: Callable[[], float],
               **labels: str) -> None:
        """Expose a single value read through ``fn`` at dump time."""
        self._collectors.append(lambda: [(name, dict(labels), float(fn()))])

    def expose_dict(self, prefix: str, mapping: Mapping[str, float],
                    **labels: str) -> None:
        """Expose every ``key: value`` of a live stats mapping as
        ``<prefix>.<key>`` — a read-through view, sampled at dump time."""
        label_dict = dict(labels)

        def collect():
            return [(f"{prefix}.{key}", label_dict, float(value))
                    for key, value in mapping.items()]

        self._collectors.append(collect)

    # -- iteration / exposition ----------------------------------------------

    def samples(self) -> list[tuple[str, dict, str, Any]]:
        """Flat ``(name, labels, kind, instrument_or_value)`` list:
        histograms first (in registration order), then collector reads."""
        out = []
        for (name, label_key), instrument in self._instruments.items():
            out.append((name, dict(label_key), "histogram", instrument))
        for collect in self._collectors:
            for name, labels, value in collect():
                out.append((name, labels, "gauge", value))
        return out

    def value(self, name: str, **labels: str) -> Optional[float]:
        """Current value of a collector sample (``None`` if there is none)."""
        key = _label_key(labels)
        for collect in self._collectors:
            for sample_name, sample_labels, value in collect():
                if sample_name == name and _label_key(sample_labels) == key:
                    return value
        return None

    def prometheus_text(self) -> str:
        """Render every instrument in the Prometheus text format."""
        groups: dict[str, list[tuple[dict, str, Any]]] = {}
        kinds: dict[str, str] = {}
        for name, labels, kind, instrument in self.samples():
            groups.setdefault(name, []).append((labels, kind, instrument))
            kinds.setdefault(name, kind)

        lines = []
        for name in sorted(groups):
            mangled = _mangle(name)
            lines.append(f"# TYPE {mangled} {kinds[name]}")
            for labels, kind, instrument in groups[name]:
                label_str = ""
                if labels:
                    inner = ",".join(f'{k}="{v}"'
                                     for k, v in sorted(labels.items()))
                    label_str = "{" + inner + "}"
                if kind == "histogram":
                    for upper, cumulative in instrument.bucket_counts():
                        le = ",".join(filter(None, [label_str[1:-1] if labels
                                                    else "",
                                                    f'le="{_fmt(upper)}"']))
                        lines.append(f"{mangled}_bucket{{{le}}} {cumulative}")
                    le = ",".join(filter(None, [label_str[1:-1] if labels
                                                else "", 'le="+Inf"']))
                    lines.append(f"{mangled}_bucket{{{le}}} {instrument.count}")
                    lines.append(f"{mangled}_sum{label_str} "
                                 f"{_fmt(instrument.sum)}")
                    lines.append(f"{mangled}_count{label_str} "
                                 f"{instrument.count}")
                else:
                    lines.append(f"{mangled}{label_str} {_fmt(instrument)}")
        return "\n".join(lines) + "\n"

    # -- Metrics-series snapshots --------------------------------------------

    def snapshot_into(self, metrics: Any, prefix: str = "telemetry/") -> None:
        """Record every instrument's current value into a ``Metrics``
        series (histograms record count / p50 / p95)."""
        for name, labels, kind, instrument in self.samples():
            suffix = ""
            if labels:
                suffix = "{" + ",".join(f"{k}={v}" for k, v
                                        in sorted(labels.items())) + "}"
            series = f"{prefix}{name}{suffix}"
            if kind == "histogram":
                metrics.record(series + ".count", instrument.count)
                metrics.record(series + ".p50", instrument.quantile(0.50))
                metrics.record(series + ".p95", instrument.quantile(0.95))
            else:
                metrics.record(series, instrument)


class MetricsSnapshotter:
    """Periodically snapshot a registry into ``Metrics`` series.

    Attaches to the sim kernel's ``on_advance`` hook — called once per
    distinct virtual time — rather than scheduling events, so enabling
    snapshots cannot change the event schedule (determinism-safe) and
    costs one comparison per time bucket when idle.
    """

    def __init__(self, registry: Registry, metrics: Any,
                 interval_ms: float = 1_000.0,
                 prefix: str = "telemetry/") -> None:
        self.registry = registry
        self.metrics = metrics
        self.interval_ms = float(interval_ms)
        self.prefix = prefix
        #: Extra per-frame observers ``fn(now_ms)`` run after each
        #: snapshot (the SLO watchdog evaluates its rules here).  They
        #: ride the same on_advance hook, so they schedule nothing and
        #: cannot perturb deterministic event order.
        self.on_frame: list = []
        self._last_ms: Optional[float] = None
        self._kernel = None
        self._hook = None

    def attach(self, runtime: Any) -> bool:
        """Chain onto ``runtime.kernel.on_advance``; returns ``False`` for
        runtimes without the hook (threaded), where callers should fall
        back to explicit :meth:`tick` calls."""
        kernel = getattr(runtime, "kernel", None)
        if kernel is None or not hasattr(kernel, "on_advance"):
            return False
        previous = kernel.on_advance

        def hook(now_ms: float, _prev=previous) -> None:
            if _prev is not None:
                _prev(now_ms)
            self.tick(now_ms)

        kernel.on_advance = hook
        self._kernel = kernel
        self._hook = hook
        return True

    def tick(self, now_ms: float) -> None:
        if self._last_ms is not None and \
                now_ms - self._last_ms < self.interval_ms:
            return
        self._last_ms = now_ms
        self.registry.snapshot_into(self.metrics, self.prefix)
        for observer in self.on_frame:
            observer(now_ms)
