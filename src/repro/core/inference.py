"""The inference engine.

"Based on this return value and programmed threshold ranges, the
inference engine makes a decision on the worker's current availability
status and passes an appropriate signal back to the worker."  The
decision is a pure function of (assumed worker state, load band) — a
property the tests pin down exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.signals import Signal, ThresholdPolicy
from repro.core.states import WorkerState, WorkerStateMachine

__all__ = ["InferenceEngine", "WorkerRecord"]


@dataclass
class WorkerRecord:
    """One registered worker as tracked by the network management module."""

    worker_id: int
    hostname: str
    assumed_state: WorkerState = WorkerState.STOPPED
    last_load: Optional[float] = None
    last_sample_ms: Optional[float] = None
    load_history: list[tuple[float, float]] = field(default_factory=list)


class InferenceEngine:
    """Threshold rules mapping (state, load) to a signal (or none).

    ``hysteresis_samples`` > 1 debounces decisions: a load sample must sit
    in the *same* band for that many consecutive observations before the
    corresponding signal fires.  This suppresses signal flapping when the
    load oscillates around a threshold (an extension; the paper's engine
    reacts to every sample).
    """

    def __init__(
        self,
        policy: Optional[ThresholdPolicy] = None,
        hysteresis_samples: int = 1,
        staleness_ms: Optional[float] = None,
    ) -> None:
        if hysteresis_samples < 1:
            raise ValueError("hysteresis_samples must be >= 1")
        self.policy = policy if policy is not None else ThresholdPolicy()
        self.hysteresis_samples = hysteresis_samples
        #: Stale-data guard: when the newest good sample for a worker is
        #: older than this (agent unreachable), stop trusting it — a
        #: worker we believe is computing gets a Stop rather than running
        #: unmonitored.  ``None`` keeps the paper's behaviour (failed
        #: polls are silently skipped).
        self.staleness_ms = staleness_ms
        self._streaks: dict[int, tuple[str, int]] = {}  # worker → (band, count)
        self._workers: dict[int, WorkerRecord] = {}
        self._next_id = 1
        #: Decision counters, surfaced by the telemetry registry as
        #: ``inference.decisions`` / ``inference.signals``.  Observational
        #: only — the rule base itself stays a pure function of its inputs.
        self.stats = {"decisions": 0, "signals": 0}

    # -- registry ---------------------------------------------------------------

    def register(self, hostname: str) -> WorkerRecord:
        """Assign a unique ID to a new worker and add it to the list."""
        record = WorkerRecord(self._next_id, hostname)
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

    def decide(self, state: WorkerState, load_percent: float) -> Optional[Signal]:
        """Pure threshold rules (paper §4.4).

        ======== ========= =========
        band     state     signal
        ======== ========= =========
        idle     stopped   Start
        idle     paused    Resume
        idle     running   —
        busy     running   Pause
        busy     paused    —
        busy     stopped   —  (not idle enough to recruit)
        loaded   running   Stop
        loaded   paused    Stop
        loaded   stopped   —
        ======== ========= =========
        """
        signal = self._decide(state, load_percent)
        self.stats["decisions"] += 1
        if signal is not None:
            self.stats["signals"] += 1
        return signal

    def _decide(self, state: WorkerState,
                load_percent: float) -> Optional[Signal]:
        band = self.policy.band(load_percent)
        if band == "idle":
            if state == WorkerState.STOPPED:
                return Signal.START
            if state == WorkerState.PAUSED:
                return Signal.RESUME
            return None
        if band == "busy":
            return Signal.PAUSE if state == WorkerState.RUNNING else None
        # loaded
        if state in (WorkerState.RUNNING, WorkerState.PAUSED):
            return Signal.STOP
        return None

    def observe(self, worker_id: int, load_percent: float, now_ms: float) -> Optional[Signal]:
        """Record a load sample for a worker and decide its signal.

        Updates the assumed state when a signal is issued; transitions
        the worker makes without our order reach :meth:`adopt`.
        """
        record = self._workers[worker_id]
        record.last_load = load_percent
        record.last_sample_ms = now_ms
        record.load_history.append((now_ms, load_percent))
        if self.hysteresis_samples > 1:
            band = self.policy.band(load_percent)
            prev_band, count = self._streaks.get(worker_id, (None, 0))
            count = count + 1 if band == prev_band else 1
            self._streaks[worker_id] = (band, count)
            if count < self.hysteresis_samples:
                return None
        signal = self.decide(record.assumed_state, load_percent)
        if signal is not None:
            record.assumed_state = self._transition(record.assumed_state, signal)
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
        if record.assumed_state not in (WorkerState.RUNNING, WorkerState.PAUSED):
            return None
        self._streaks.pop(worker_id, None)  # debounce restarts on recovery
        record.assumed_state = self._transition(record.assumed_state, Signal.STOP)
        return Signal.STOP

    def adopt(self, worker_id: int, signal: Signal) -> None:
        """Follow a transition the worker made without our order (the
        preemption governor's Pause/Resume, its own Stop).  One that is
        illegal from the assumed state crossed an order of ours in flight,
        which the worker applies or refuses in turn; it is ignored."""
        record = self._workers.get(worker_id)
        if record is None:
            return
        machine = WorkerStateMachine(initial=record.assumed_state)
        if machine.can_apply(signal):
            record.assumed_state = machine.apply(signal)

    @staticmethod
    def _transition(state: WorkerState, signal: Signal) -> WorkerState:
        return WorkerStateMachine(initial=state).apply(signal)
