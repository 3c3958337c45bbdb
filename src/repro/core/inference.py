"""The inference engine.

"Based on this return value and programmed threshold ranges, the
inference engine makes a decision on the worker's current availability
status and passes an appropriate signal back to the worker."  It is the
one decider of every worker signal: each fact source — an SNMP sample
or trap, a failed poll, the preemption governor, the framework's recruit
— updates the worker's :class:`Facts`, :meth:`InferenceEngine.decide`
reads them in one table, and :meth:`InferenceEngine.order` applies the
decision to the worker's record and sends it over the worker's link.
The decision is a pure function of (assumed worker state, facts) — a
property the tests pin down exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.signals import Signal, ThresholdPolicy
from repro.core.states import WorkerState, WorkerStateMachine

__all__ = ["Facts", "InferenceEngine", "WorkerRecord"]


@dataclass
class Facts:
    """What the rule-base knows about one worker's node."""

    band: Optional[str] = None   # load band of the last good sample
    stale: bool = False          # its samples went stale (agent unreachable)
    held: bool = False           # urgent backlog waits behind its carry
    recruited: bool = False      # the framework recruited it (no monitor)


@dataclass
class WorkerRecord:
    """One registered worker: its facts, the state the rule-base assumes
    it is in, and its link — how an order reaches it (the control socket
    when monitored, the in-process ``handle_signal`` otherwise; ``None``
    records decisions only)."""

    worker_id: int
    hostname: str
    link: Optional[Callable[[Signal], None]] = None
    assumed_state: WorkerState = WorkerState.STOPPED
    facts: Facts = field(default_factory=Facts)
    last_sample_ms: Optional[float] = None


class InferenceEngine:
    """The rule-base: threshold rules over each worker's facts."""

    def __init__(
        self,
        policy: Optional[ThresholdPolicy] = None,
        staleness_ms: Optional[float] = None,
    ) -> None:
        self.policy = policy if policy is not None else ThresholdPolicy()
        #: Stale-data guard: when the newest good sample for a worker is
        #: older than this (agent unreachable), stop trusting it — a
        #: worker we believe is computing gets a Stop rather than running
        #: unmonitored.  ``None`` keeps the paper's behaviour (failed
        #: polls are silently skipped).
        self.staleness_ms = staleness_ms
        self._workers: dict[int, WorkerRecord] = {}
        self._next_id = 1
        #: Per load sample: decisions made and signals decided, surfaced
        #: by the telemetry registry as ``inference.decisions`` /
        #: ``inference.signals``.  Observational only.
        self.stats = {"decisions": 0, "signals": 0}

    # -- registry ---------------------------------------------------------------

    def register(self, hostname: str,
                 link: Optional[Callable[[Signal], None]] = None
                 ) -> WorkerRecord:
        """Assign a unique ID to a new worker and add it to the list."""
        record = WorkerRecord(self._next_id, hostname, link)
        self._workers[record.worker_id] = record
        self._next_id += 1
        return record

    def unregister(self, worker_id: int) -> None:
        self._workers.pop(worker_id, None)

    def worker(self, worker_id: int) -> WorkerRecord:
        return self._workers[worker_id]

    def workers(self) -> list[WorkerRecord]:
        return list(self._workers.values())

    # -- the rule base -------------------------------------------------------------

    def decide(self, state: WorkerState, facts: Facts) -> Optional[Signal]:
        """The rule-base (paper §4.4) as one table; the first row whose
        facts hold decides.

        ============================== ======= ======= ======
        facts                          stopped running paused
        ============================== ======= ======= ======
        stale, or band loaded          —       Stop    Stop
        band busy, or carry held       —       Pause   —
        band idle, or recruited and    Start   —       Resume
        never sampled
        never sampled, not recruited   —       —       —
        ============================== ======= ======= ======
        """
        if facts.stale or facts.band == "loaded":
            return None if state is WorkerState.STOPPED else Signal.STOP
        if facts.band == "busy" or facts.held:
            return Signal.PAUSE if state is WorkerState.RUNNING else None
        if facts.band is None and not facts.recruited:
            return None
        if state is WorkerState.STOPPED:
            return Signal.START
        return Signal.RESUME if state is WorkerState.PAUSED else None

    def order(self, record: WorkerRecord, signal: Signal) -> None:
        """Apply a decision to the worker's record and send it over the
        worker's link."""
        record.assumed_state = WorkerStateMachine(
            initial=record.assumed_state).apply(signal)
        if record.link is not None:
            record.link(signal)

    def _apply(self, record: WorkerRecord) -> Optional[Signal]:
        signal = self.decide(record.assumed_state, record.facts)
        if signal is not None:
            self.order(record, signal)
        return signal

    # -- the fact sources ------------------------------------------------------------

    def observe(self, worker_id: int, load_percent: float, now_ms: float) -> Optional[Signal]:
        """A load sample (SNMP poll or trap): the worker's load band, and
        fresh again.  Returns the signal ordered, if any."""
        record = self._workers[worker_id]
        record.last_sample_ms = now_ms
        record.facts.band = self.policy.band(load_percent)
        record.facts.stale = False
        signal = self._apply(record)
        self.stats["decisions"] += 1
        if signal is not None:
            self.stats["signals"] += 1
        return signal

    def observe_failure(self, worker_id: int, now_ms: float) -> Optional[Signal]:
        """A poll failed (agent unreachable): apply the stale-data guard.

        A decision made on data older than ``staleness_ms`` is a guess,
        and the costly wrong guess is leaving a worker computing on a
        node whose load we can no longer see — so a Running/Paused worker
        whose samples went stale is stopped until fresh samples arrive.
        Never-sampled workers are stale by definition but Stopped, so
        nothing fires for them.
        """
        if self.staleness_ms is None:
            return None
        record = self._workers.get(worker_id)
        if record is None:
            return None
        last = record.last_sample_ms
        if last is not None and now_ms - last < self.staleness_ms:
            return None
        record.facts.stale = True
        return self._apply(record)

    def observe_carry(self, worker_id: int, held: bool) -> Optional[Signal]:
        """The preemption governor: urgent backlog waits behind this
        worker's preemptible carry (``held``), or no longer does."""
        record = self._workers.get(worker_id)
        if record is None:
            return None
        record.facts.held = held
        return self._apply(record)

    def recruit(self) -> None:
        """The framework's recruit: with no monitor to sample the nodes,
        every registered worker counts as available."""
        for record in self.workers():
            record.facts.recruited = True
            self._apply(record)

    def observe_stop(self, worker_id: int) -> None:
        """The worker's own Stop (it gave up, or its loop failed): the one
        transition the rule-base does not order.  Its recruit lapses; a
        monitored worker is Started again by the next idle sample."""
        record = self._workers.get(worker_id)
        if record is not None:
            record.assumed_state = WorkerState.STOPPED
            record.facts.recruited = False
