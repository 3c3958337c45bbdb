"""The worker state machine (paper Fig. 5).

Three states — Running, Paused, Stopped — with transitions driven solely
by rule-base signals:

* Stopped --Start-->  Running   (requires remote class (re)loading)
* Running --Stop-->   Stopped   (worker thread shut down, classes dropped)
* Running --Pause-->  Paused    (thread blocked, classes retained)
* Paused  --Resume--> Running   (no class reload needed)
* Paused  --Stop-->   Stopped   (load kept rising while paused)

Any other (state, signal) pair is illegal; the machine rejects it rather
than guessing, which is what lets experiments assert that the inference
engine only ever produces legal signals.
"""

from __future__ import annotations

import enum

from repro.errors import IllegalTransitionError
from repro.core.signals import Signal

__all__ = ["WorkerState", "WorkerStateMachine"]


class WorkerState(enum.Enum):
    """The three worker states of the paper's Fig. 5."""

    RUNNING = "running"
    PAUSED = "paused"
    STOPPED = "stopped"

    def __str__(self) -> str:
        return self.value


_TRANSITIONS: dict[tuple[WorkerState, Signal], WorkerState] = {
    (WorkerState.STOPPED, Signal.START): WorkerState.RUNNING,
    (WorkerState.RUNNING, Signal.STOP): WorkerState.STOPPED,
    (WorkerState.RUNNING, Signal.PAUSE): WorkerState.PAUSED,
    (WorkerState.PAUSED, Signal.RESUME): WorkerState.RUNNING,
    (WorkerState.PAUSED, Signal.STOP): WorkerState.STOPPED,
}


class WorkerStateMachine:
    """Tracks one worker's state."""

    def __init__(self, initial: WorkerState = WorkerState.STOPPED) -> None:
        self.state = initial

    def can_apply(self, signal: Signal) -> bool:
        return (self.state, signal) in _TRANSITIONS

    def apply(self, signal: Signal) -> WorkerState:
        """Transition on ``signal``; raises on an illegal pair."""
        key = (self.state, signal)
        if key not in _TRANSITIONS:
            raise IllegalTransitionError(
                f"signal {signal} illegal in state {self.state}"
            )
        self.state = _TRANSITIONS[key]
        return self.state
