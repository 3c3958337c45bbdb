"""Per-task distributed tracing over the simulated cluster.

A :class:`Tracer` records :class:`Span` objects — named intervals on the
runtime clock (virtual ms under the sim runtime, wall-clock ms under the
threaded runtime) grouped by a ``trace_id``.  The master mints one trace
per task (``"<app_id>/<task_id>"``), stamps it into the ``TaskEntry``,
and every layer the task passes through (proxy RPC, worker compute, WAL
commit, master aggregation) hangs child spans off it, yielding a
causally-ordered span tree per task.

Determinism contract: trace IDs are minted *unconditionally* — whether
tracing is enabled only controls whether spans are recorded, never the
bytes that travel over the simulated network.  Entry payloads are
therefore identical with tracing on and off, and since the latency model
charges per-KB transfer time, virtual timelines (and hence the chaos
``--verify-determinism`` traces) cannot diverge between the two modes.

Zero-cost-when-disabled: hot paths guard with
``if tracer is not None and tracer.enabled`` and the disabled
:meth:`Tracer.start` returns the shared :data:`NULL_SPAN`, so unguarded
callers still work without allocating.

Exports: JSONL (one span per line) and the Chrome ``trace_event`` format
(open the file at https://ui.perfetto.dev).  Virtual milliseconds map to
trace microseconds, one Chrome "thread" per simulated process.
"""

from __future__ import annotations

import json
import weakref
from typing import Any, Callable, Iterable, Optional

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One named interval in a trace.  Mutable until :meth:`end` is called."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "proc",
                 "start_ms", "end_ms", "attrs", "_clock")

    def __init__(self, clock: Callable[[], float], name: str, trace_id: str,
                 span_id: str, parent_id: Optional[str], proc: Optional[str],
                 start_ms: float, attrs: dict) -> None:
        self._clock = clock
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.proc = proc
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attrs = attrs

    @property
    def duration_ms(self) -> float:
        end = self.end_ms if self.end_ms is not None else self.start_ms
        return end - self.start_ms

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def end(self, **attrs: Any) -> None:
        """Close the span at the current clock reading (idempotent)."""
        if attrs:
            self.attrs.update(attrs)
        if self.end_ms is None:
            self.end_ms = self._clock()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.end(status="error", error=exc_type.__name__)
        else:
            self.end()
        return False

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms if self.end_ms is not None else self.start_ms,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.proc is not None:
            record["proc"] = self.proc
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id!r}, "
                f"[{self.start_ms}..{self.end_ms}], proc={self.proc!r})")


class _NullSpan:
    """Shared no-op span returned by a disabled tracer."""

    __slots__ = ()
    name = ""
    trace_id = None
    span_id = None
    parent_id = None
    proc = None
    start_ms = 0.0
    end_ms = 0.0
    attrs: dict = {}
    duration_ms = 0.0

    def annotate(self, **attrs: Any) -> None:
        pass

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Activation:
    """Context manager pushing a span onto the caller's active-span stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Optional[Span]) -> None:
        self._tracer = tracer
        self._span = span if isinstance(span, Span) else None

    def __enter__(self):
        if self._span is not None:
            self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not None:
            self._tracer._pop()
        return False


class Tracer:
    """Span recorder bound to a runtime clock.

    Span IDs come from a plain counter, so under the sim runtime (which
    executes in a deterministic order) two identically-seeded runs mint
    identical IDs — the span-propagation tests pin this down.
    """

    def __init__(self, runtime: Any, enabled: bool = False) -> None:
        self.runtime = runtime
        self.enabled = enabled
        self.spans: list[Span] = []
        #: Optional observer invoked with each span as it is recorded
        #: (the flight recorder rings recent spans through this).  Only
        #: fires when tracing is enabled, so it cannot affect timelines.
        self.sink: Optional[Callable[[Span], None]] = None
        self._next_id = 0
        # Active-span stacks keyed by ``runtime.context()`` — the simulated
        # process, not the OS thread: a parked process's thread also runs
        # timer actions, and carrier threads run many processes in turn.
        # An entry exists only while its stack is non-empty; weak keys, so
        # a context that dies mid-``activate`` takes its stack with it.
        self._stacks: weakref.WeakKeyDictionary[Any, list[Span]] = (
            weakref.WeakKeyDictionary())

    # -- clock / context -----------------------------------------------------

    def _now(self) -> float:
        return self.runtime.now()

    def _push(self, span: Span) -> None:
        self._stacks.setdefault(self.runtime.context(), []).append(span)

    def _pop(self) -> None:
        context = self.runtime.context()
        stack = self._stacks[context]
        stack.pop()
        if not stack:
            del self._stacks[context]

    @property
    def current(self) -> Optional[Span]:
        """The innermost active span of the calling process, if any."""
        stack = self._stacks.get(self.runtime.context())
        return stack[-1] if stack else None

    def activate(self, span: Optional[Span]) -> _Activation:
        """``with tracer.activate(span):`` — set the ambient span so nested
        RPCs (and log lines) attach to it.  ``None``/null spans are no-ops."""
        return _Activation(self, span)

    # -- recording -----------------------------------------------------------

    def start(self, name: str, trace_id: str, parent_id: Optional[str] = None,
              span_id: Optional[str] = None, proc: Optional[str] = None,
              **attrs: Any):
        """Open a span at the current clock reading."""
        if not self.enabled:
            return NULL_SPAN
        if span_id is None:
            self._next_id += 1
            span_id = f"s{self._next_id}"
        span = Span(self._now, name, trace_id, span_id, parent_id, proc,
                    self._now(), attrs)
        self.spans.append(span)
        if self.sink is not None:
            self.sink(span)
        return span

    def record(self, name: str, trace_id: str, start_ms: float, end_ms: float,
               parent_id: Optional[str] = None, span_id: Optional[str] = None,
               proc: Optional[str] = None, **attrs: Any) -> Optional[Span]:
        """Record a span with explicit timestamps (used when work is batched
        and per-item shares are only known after the fact)."""
        if not self.enabled:
            return None
        if span_id is None:
            self._next_id += 1
            span_id = f"s{self._next_id}"
        span = Span(self._now, name, trace_id, span_id, parent_id, proc,
                    start_ms, attrs)
        span.end_ms = end_ms
        self.spans.append(span)
        if self.sink is not None:
            self.sink(span)
        return span

    def instant(self, name: str, trace_id: str, parent_id: Optional[str] = None,
                proc: Optional[str] = None, **attrs: Any) -> Optional[Span]:
        """Record a zero-duration marker (rendered as an instant event)."""
        now = self._now()
        return self.record(name, trace_id, now, now, parent_id=parent_id,
                           proc=proc, **attrs)

    # -- queries -------------------------------------------------------------

    def find(self, name: str) -> Optional[Span]:
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def by_trace(self, trace_id: str) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def coverage(self, start_ms: float, end_ms: float,
                 names: Optional[Iterable[str]] = None) -> float:
        """Fraction of ``[start_ms, end_ms]`` covered by the union of spans
        (optionally restricted to ``names``).  1.0 means the whole window
        is accounted for by at least one span."""
        if end_ms <= start_ms:
            return 1.0
        wanted = set(names) if names is not None else None
        intervals = []
        for span in self.spans:
            if wanted is not None and span.name not in wanted:
                continue
            lo = max(span.start_ms, start_ms)
            hi = min(span.end_ms if span.end_ms is not None else span.start_ms,
                     end_ms)
            if hi > lo:
                intervals.append((lo, hi))
        intervals.sort()
        covered = 0.0
        cursor = start_ms
        for lo, hi in intervals:
            if hi <= cursor:
                continue
            covered += hi - max(lo, cursor)
            cursor = hi
        return covered / (end_ms - start_ms)

    # -- export --------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(json.dumps(span.to_dict(), sort_keys=True) + "\n"
                       for span in self.spans)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def chrome_trace(self) -> dict:
        """Spans as a Chrome ``trace_event`` document (Perfetto-loadable).

        Virtual ms become trace µs; each simulated process (``span.proc``)
        gets its own named "thread" row, spans without a process share a
        catch-all row per trace family.
        """
        tids: dict[str, int] = {}
        events: list[dict] = []

        def tid_for(proc: str) -> int:
            tid = tids.get(proc)
            if tid is None:
                tid = tids[proc] = len(tids) + 1
            return tid

        for span in self.spans:
            proc = span.proc if span.proc is not None else span.trace_id
            end_ms = span.end_ms if span.end_ms is not None else span.start_ms
            args = {"trace_id": span.trace_id, "span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attrs)
            event = {
                "name": span.name,
                "cat": span.trace_id,
                "pid": 1,
                "tid": tid_for(proc),
                "ts": round(span.start_ms * 1000.0, 3),
                "args": args,
            }
            if end_ms > span.start_ms:
                event["ph"] = "X"
                event["dur"] = round((end_ms - span.start_ms) * 1000.0, 3)
            else:
                event["ph"] = "i"
                event["s"] = "t"
            events.append(event)

        meta = [{"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": "repro cluster"}}]
        for proc, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            meta.append({"name": "thread_name", "ph": "M", "pid": 1,
                         "tid": tid, "args": {"name": proc}})
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
