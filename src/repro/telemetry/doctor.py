"""Critical-path attribution: *why* did this job take as long as it did?

:func:`analyze_job` walks one job's span tree (the ``job`` root plus
``planning`` / ``task`` / ``compute`` / ``aggregate`` / ``scatter`` /
``rpc.*`` / ``wal.*`` / ``admission.backoff`` spans the layers below
recorded) and attributes every instant of the job window
``[job.start_ms, job.end_ms]`` to exactly one *phase*, so the per-phase
milliseconds always sum to the job's wall time — no double counting, no
residue.

Attribution is a priority sweep: the window is cut at every span
boundary, and each elementary segment goes to the highest-priority phase
with a span covering it (see :data:`PHASE_ORDER`).  The ordering encodes
"how useful was the cluster right then":

1. ``compute``   — any worker was executing task payload; the cluster
   made forward progress, whatever the master was doing.
2. ``planning``  — the master's serial task-planning path.
3. ``aggregate`` — the master's per-task aggregation CPU.
4. ``admission`` — the master backing off an admission rejection.
5. ``scatter``   — a scatter-gather fan-out had RPCs in flight (the
   intersection of ``scatter`` spans with ``rpc.*`` spans, so camped
   waits inside a scatter do not masquerade as fan-out cost).
6. ``rpc``       — some request/reply (or class load) was in flight.
7. ``wal``       — durability barriers (commits, syncs and checkpoints
   are instants under simulation, so this phase is usually 0 ms; the
   counts still appear in the report, with the largest checkpoint —
   the one stall whose host cost grows with the store — by name).
8. ``queue``     — the remainder: nothing above was happening, so the
   job was waiting on queues/scheduling.

Everything derives from recorded spans — deterministic span IDs and
virtual timestamps — so the same seed always renders the byte-identical
report.  The analyzer runs strictly *after* a job (CLI ``repro doctor``,
``run_micro --check`` explanations); nothing here touches the hot path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

__all__ = [
    "PHASE_ORDER",
    "DoctorReport",
    "PhaseSlice",
    "TaskCost",
    "WorkerLane",
    "analyze_job",
    "explain_phase_regression",
]

#: Phases in sweep priority order (highest first); ``queue`` is the
#: implicit remainder and always comes last.
PHASE_ORDER = ("compute", "planning", "aggregate", "admission",
               "scatter", "rpc", "wal", "queue")

#: Density ramp for the per-worker utilization timelines.
_RAMP = " .:-=+*#%@"


def _span_interval(span: Any, lo: float, hi: float) -> Optional[tuple]:
    """The span clipped to ``[lo, hi]``, or None if disjoint/empty."""
    start = span.start_ms
    end = span.end_ms if span.end_ms is not None else span.start_ms
    start, end = max(start, lo), min(end, hi)
    if end <= start:
        return None
    return (start, end)


def _union(intervals: Iterable[tuple]) -> list[tuple]:
    """Merge overlapping ``(lo, hi)`` intervals into a sorted union."""
    merged: list[tuple] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _intersect(a: Sequence[tuple], b: Sequence[tuple]) -> list[tuple]:
    """Intersection of two merged interval lists."""
    out: list[tuple] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _total(intervals: Iterable[tuple]) -> float:
    return sum(hi - lo for lo, hi in intervals)


#: Exact span-name → phase map; ``rpc.*`` is handled by prefix in
#: :func:`_phase_of` (RPC span names carry the method).
_PHASE_BY_NAME = {
    "compute": "compute",
    "planning": "planning",
    "aggregate": "aggregate",
    "admission.backoff": "admission",
    "scatter": "scatter",
    "class-load": "rpc",
    "wal.commit": "wal",
    "wal.sync": "wal",
    "wal.snapshot": "wal",
}


def _phase_of(span: Any) -> Optional[str]:
    """Which phase a span feeds (None = structural, e.g. job/task)."""
    name = span.name
    phase = _PHASE_BY_NAME.get(name)
    if phase is None and name.startswith("rpc."):
        return "rpc"
    return phase


@dataclass(frozen=True)
class PhaseSlice:
    """One phase's share of the job window."""

    name: str
    ms: float
    fraction: float
    spans: int

    def to_dict(self) -> dict:
        return {"name": self.name, "ms": round(self.ms, 3),
                "fraction": round(self.fraction, 6), "spans": self.spans}


@dataclass(frozen=True)
class WorkerLane:
    """One worker's utilization over the job window."""

    proc: str
    busy_ms: float
    utilization: float
    tasks: int
    timeline: str

    def to_dict(self) -> dict:
        return {"proc": self.proc, "busy_ms": round(self.busy_ms, 3),
                "utilization": round(self.utilization, 6),
                "tasks": self.tasks, "timeline": self.timeline}


@dataclass(frozen=True)
class TaskCost:
    """Per-task cost split: where one task's lifetime went."""

    trace_id: str
    total_ms: float
    compute_ms: float
    rpc_ms: float
    wait_ms: float
    worker: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id,
                "total_ms": round(self.total_ms, 3),
                "compute_ms": round(self.compute_ms, 3),
                "rpc_ms": round(self.rpc_ms, 3),
                "wait_ms": round(self.wait_ms, 3),
                "worker": self.worker}


@dataclass
class DoctorReport:
    """The full attribution for one job window.

    ``phases`` partition the window exactly: ``sum(p.ms) == wall_ms`` up
    to float rounding, which is what makes the report a *closed*
    explanation rather than a list of overlapping measurements.
    """

    app: str
    start_ms: float
    end_ms: float
    phases: tuple[PhaseSlice, ...]
    workers: tuple[WorkerLane, ...]
    slowest: tuple[TaskCost, ...]
    counts: dict = field(default_factory=dict)

    @property
    def wall_ms(self) -> float:
        return self.end_ms - self.start_ms

    def phase_ms(self) -> dict[str, float]:
        return {p.name: p.ms for p in self.phases}

    def attributed_fraction(self) -> float:
        """Sum of phase fractions — 1.0 by construction (the acceptance
        check for "attribution sums to 100% of job wall time")."""
        return sum(p.fraction for p in self.phases)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "window": {"start_ms": round(self.start_ms, 3),
                       "end_ms": round(self.end_ms, 3),
                       "wall_ms": round(self.wall_ms, 3)},
            "phases": [p.to_dict() for p in self.phases],
            "workers": [w.to_dict() for w in self.workers],
            "slowest_tasks": [t.to_dict() for t in self.slowest],
            "counts": dict(self.counts),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format(self) -> str:
        lines = [
            f"doctor — job {self.app!r}",
            f"window: {self.start_ms:,.1f} .. {self.end_ms:,.1f} ms  "
            f"(wall {self.wall_ms:,.1f} ms, "
            f"{self.counts.get('tasks', 0)} tasks, "
            f"{self.counts.get('spans', 0)} spans)",
            "phase attribution (sums to 100.0% of job wall time):",
        ]
        bar_width = 24
        for p in self.phases:
            bar = "#" * int(round(p.fraction * bar_width))
            lines.append(
                f"  {p.name:<10} {p.ms:>12,.1f} ms  {p.fraction:>6.1%}  "
                f"|{bar:<{bar_width}}|  ({p.spans} spans)")
        if self.counts.get("wal_commits") or self.counts.get("wal_syncs"):
            lines.append(
                f"  wal barriers: {self.counts.get('wal_commits', 0)} "
                f"commits, {self.counts.get('wal_syncs', 0)} syncs, "
                f"{self.counts.get('wal_checkpoints', 0)} checkpoints "
                f"(instant under simulation)")
        if self.counts.get("wal_checkpoints"):
            lines.append(
                f"  largest checkpoint: "
                f"{self.counts['wal_checkpoint_max_bytes']:,} bytes / "
                f"{self.counts['wal_checkpoint_max_entries']:,} entries at "
                f"t={self.counts['wal_checkpoint_max_at_ms']:,.1f} ms "
                f"(written under the space lock)")
        if self.workers:
            width = len(self.workers[0].timeline)
            lines.append(f"per-worker utilization "
                         f"({width} buckets over the window):")
            for lane in self.workers:
                lines.append(
                    f"  {lane.proc:<12} |{lane.timeline}| "
                    f"{lane.utilization:>6.1%} busy  "
                    f"{lane.tasks:>4} tasks  {lane.busy_ms:>10,.1f} ms")
        if self.slowest:
            lines.append("slowest tasks (total = compute + rpc + wait):")
            for t in self.slowest:
                lines.append(
                    f"  {t.trace_id:<20} total {t.total_ms:>9,.1f} ms = "
                    f"compute {t.compute_ms:>8,.1f} + rpc {t.rpc_ms:>7,.1f}"
                    f" + wait {t.wait_ms:>8,.1f}   [{t.worker}]")
        return "\n".join(lines)


def _pick_job_span(spans: Sequence[Any], app: Optional[str]) -> Any:
    """The *last* matching ``job`` span — a warm benchmark runs the same
    job twice on one tracer, and the warm run is the one under study."""
    chosen = None
    for span in spans:
        if span.name != "job":
            continue
        if app is not None and span.attrs.get("app") != app:
            continue
        chosen = span
    if chosen is None:
        raise ValueError(
            "no 'job' span recorded — was the run traced? "
            "(FrameworkConfig(trace=True) / repro doctor runs it for you)")
    return chosen


def analyze_job(tracer_or_spans: Any, app: Optional[str] = None,
                top_tasks: int = 5, lane_width: int = 40) -> DoctorReport:
    """Attribute one job's wall time to phases (see module docstring).

    ``tracer_or_spans`` is a :class:`~repro.telemetry.trace.Tracer` or a
    plain span list; ``app`` pins a specific job when several apps share
    the tracer.  Deterministic: identical spans → identical report.
    """
    spans = getattr(tracer_or_spans, "spans", tracer_or_spans)
    job = _pick_job_span(spans, app)
    lo = job.start_ms
    hi = job.end_ms if job.end_ms is not None else job.start_ms
    if hi <= lo:
        raise ValueError(f"job span has an empty window [{lo}, {hi}]")

    # -- bucket spans by phase, clipped to the window ------------------------
    # One pass over the span list collects everything downstream needs
    # (phase buckets, worker lanes, per-task cost inputs): the analysis
    # is on the run_micro --check path, so span-count-linear work is
    # done once, with the clip inlined.
    raw: dict[str, list[tuple]] = {name: [] for name in PHASE_ORDER}
    span_counts: dict[str, int] = {name: 0 for name in PHASE_ORDER}
    wal_commits = wal_syncs = wal_checkpoints = 0
    largest_checkpoint: Optional[Any] = None
    task_spans: list[Any] = []
    by_proc: dict[str, list[tuple]] = {}
    tasks_by_proc: dict[str, int] = {}
    compute_by_trace: dict[str, list[tuple]] = {}
    rpc_by_trace: dict[str, list[tuple]] = {}
    worker_by_trace: dict[str, str] = {}
    for span in spans:
        name = span.name
        if name == "wal.commit":
            wal_commits += 1
        elif name == "wal.sync":
            wal_syncs += 1
        elif name == "wal.snapshot":
            wal_checkpoints += 1
            if (largest_checkpoint is None or span.attrs.get("bytes", 0)
                    > largest_checkpoint.attrs.get("bytes", 0)):
                largest_checkpoint = span
        start = span.start_ms
        end = span.end_ms if span.end_ms is not None else start
        if name == "task":
            if start < hi:
                task_spans.append(span)
            continue
        a = start if start > lo else lo
        b = end if end < hi else hi
        if b <= a:
            continue
        interval = (a, b)
        if name == "compute":
            raw["compute"].append(interval)
            span_counts["compute"] += 1
            compute_by_trace.setdefault(span.trace_id, []).append(interval)
            if span.proc is not None:
                worker_by_trace[span.trace_id] = span.proc
                by_proc.setdefault(span.proc, []).append(interval)
                tasks_by_proc[span.proc] = tasks_by_proc.get(span.proc, 0) + 1
            continue
        phase = _phase_of(span)
        if phase is None:
            continue
        raw[phase].append(interval)
        span_counts[phase] += 1
        if phase == "rpc" and name.startswith("rpc."):
            rpc_by_trace.setdefault(span.trace_id, []).append(interval)

    merged = {name: _union(intervals) for name, intervals in raw.items()}
    # Scatter only counts while its fan-out RPCs are actually in flight;
    # the camped waits inside a scatter loop fall through to lower
    # priorities (usually queue wait), which is what they are.
    merged["scatter"] = _intersect(merged["scatter"], merged["rpc"])

    # -- priority sweep ------------------------------------------------------
    cuts = {lo, hi}
    for name in PHASE_ORDER[:-1]:
        for a, b in merged[name]:
            cuts.add(a)
            cuts.add(b)
    points = sorted(cuts)
    attributed = {name: 0.0 for name in PHASE_ORDER}
    cursors = {name: 0 for name in PHASE_ORDER[:-1]}
    for a, b in zip(points, points[1:]):
        winner = "queue"
        for name in PHASE_ORDER[:-1]:
            intervals = merged[name]
            i = cursors[name]
            while i < len(intervals) and intervals[i][1] <= a:
                i += 1
            cursors[name] = i
            if i < len(intervals) and intervals[i][0] <= a:
                winner = name
                break
        attributed[winner] += b - a

    wall = hi - lo
    phases = tuple(
        PhaseSlice(name=name, ms=attributed[name],
                   fraction=attributed[name] / wall,
                   spans=span_counts[name])
        for name in PHASE_ORDER
    )

    # -- per-worker utilization lanes ----------------------------------------
    lanes = []
    bucket = wall / lane_width
    scale = (len(_RAMP) - 1) / bucket
    top_bucket = lane_width - 1
    for proc in sorted(by_proc):
        intervals = _union(by_proc[proc])
        busy = _total(intervals)
        # Distribute each (sorted, disjoint) interval into its buckets
        # arithmetically — O(intervals + buckets), no per-cell scan.
        cov = [0.0] * lane_width
        for s, e in intervals:
            bs = min(int((s - lo) / bucket), top_bucket)
            be = min(int((e - lo) / bucket), top_bucket)
            if bs == be:
                cov[bs] += e - s
            else:
                cov[bs] += lo + (bs + 1) * bucket - s
                for k in range(bs + 1, be):
                    cov[k] = bucket
                cov[be] += e - (lo + be * bucket)
        cells = [_RAMP[int(c * scale + 0.5)] for c in cov]
        lanes.append(WorkerLane(
            proc=proc, busy_ms=busy, utilization=busy / wall,
            tasks=tasks_by_proc.get(proc, 0), timeline="".join(cells)))

    # -- per-task cost split -------------------------------------------------
    # Rank by clipped duration first, then run the interval algebra only
    # for the ``top_tasks`` actually reported — the split is the priciest
    # per-task work and the report never shows more than the top N.
    ranked = []
    for span in task_spans:
        interval = _span_interval(span, lo, hi)
        if interval is not None:
            ranked.append((interval, span))
    ranked.sort(key=lambda r: (r[0][0] - r[0][1], r[1].trace_id))
    costs = []
    for interval, span in ranked[:top_tasks]:
        total = interval[1] - interval[0]
        window = [interval]
        compute = _total(_intersect(
            _union(compute_by_trace.get(span.trace_id, [])), window))
        rpc = _total(_intersect(
            _union(rpc_by_trace.get(span.trace_id, [])), window))
        costs.append(TaskCost(
            trace_id=span.trace_id, total_ms=total, compute_ms=compute,
            rpc_ms=rpc, wait_ms=max(0.0, total - compute - rpc),
            worker=worker_by_trace.get(span.trace_id, "-")))

    counts = {
        "tasks": len(task_spans),
        "spans": len(spans),
        "rpcs": span_counts["rpc"],
        "wal_commits": wal_commits,
        "wal_syncs": wal_syncs,
        "wal_checkpoints": wal_checkpoints,
    }
    if largest_checkpoint is not None:
        counts.update(
            wal_checkpoint_max_bytes=largest_checkpoint.attrs.get("bytes", 0),
            wal_checkpoint_max_entries=largest_checkpoint.attrs.get(
                "entries", 0),
            wal_checkpoint_max_at_ms=largest_checkpoint.start_ms)
    return DoctorReport(
        app=str(job.attrs.get("app", job.trace_id)),
        start_ms=lo, end_ms=hi,
        phases=phases, workers=tuple(lanes),
        slowest=tuple(costs),
        counts=counts,
    )


def explain_phase_regression(committed: Mapping[str, float],
                             current: Mapping[str, float],
                             prefix: str = "doctor_",
                             suffix: str = "_ms",
                             min_growth_ms: float = 1.0) -> list[str]:
    """Which phase grew?  Human-readable lines for a throughput failure.

    ``committed``/``current`` are benchmark cell dicts holding
    ``<prefix><phase><suffix>`` entries (deterministic virtual-time
    milliseconds).  Returns lines sorted by absolute growth, largest
    first; empty when no phase grew by at least ``min_growth_ms``.
    """
    deltas = []
    for name in PHASE_ORDER:
        key = f"{prefix}{name}{suffix}"
        if key not in committed or key not in current:
            continue
        before, after = float(committed[key]), float(current[key])
        if after - before >= min_growth_ms:
            deltas.append((after - before, name, before, after))
    deltas.sort(key=lambda d: (-d[0], d[1]))
    lines = []
    for growth, name, before, after in deltas:
        ratio = after / before if before > 0 else float("inf")
        lines.append(
            f"doctor: phase '{name}' grew {before:,.1f} → {after:,.1f} "
            f"virtual ms ({ratio:.2f}x, +{growth:,.1f} ms)")
    return lines
