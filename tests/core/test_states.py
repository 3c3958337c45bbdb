"""Worker state machine (Fig. 5): exhaustive transition coverage."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import IllegalTransitionError
from repro.core.signals import Signal
from repro.core.states import WorkerState, WorkerStateMachine


LEGAL = {
    (WorkerState.STOPPED, Signal.START): WorkerState.RUNNING,
    (WorkerState.RUNNING, Signal.STOP): WorkerState.STOPPED,
    (WorkerState.RUNNING, Signal.PAUSE): WorkerState.PAUSED,
    (WorkerState.PAUSED, Signal.RESUME): WorkerState.RUNNING,
    (WorkerState.PAUSED, Signal.STOP): WorkerState.STOPPED,
}


def test_initial_state_is_stopped():
    assert WorkerStateMachine().state == WorkerState.STOPPED


@pytest.mark.parametrize("state,signal", LEGAL.keys())
def test_legal_transitions(state, signal):
    machine = WorkerStateMachine(initial=state)
    assert machine.apply(signal) == LEGAL[(state, signal)]


@pytest.mark.parametrize(
    "state,signal",
    [
        (s, sig)
        for s in WorkerState
        for sig in Signal
        if (s, sig) not in LEGAL
    ],
)
def test_illegal_transitions_rejected(state, signal):
    machine = WorkerStateMachine(initial=state)
    assert not machine.can_apply(signal)
    with pytest.raises(IllegalTransitionError):
        machine.apply(signal)
    assert machine.state == state  # unchanged after rejection


def test_paper_scenario_start_stop_restart_pause_resume():
    """The exact signal sequence of the Figs 9–11 experiments."""
    machine = WorkerStateMachine()
    sequence = [Signal.START, Signal.STOP, Signal.START, Signal.PAUSE, Signal.RESUME]
    states = [machine.apply(s) for s in sequence]
    assert states == [
        WorkerState.RUNNING,
        WorkerState.STOPPED,
        WorkerState.RUNNING,
        WorkerState.PAUSED,
        WorkerState.RUNNING,
    ]


@given(signals=st.lists(st.sampled_from(list(Signal)), max_size=30))
def test_state_always_consistent_with_fig5(signals):
    """Property: applying any signal soup never leaves the Fig. 5 graph."""
    machine = WorkerStateMachine()
    applied = []
    for signal in signals:
        if machine.can_apply(signal):
            before = machine.state
            assert machine.apply(signal) == LEGAL[(before, signal)]
            applied.append(signal)
        else:
            with pytest.raises(IllegalTransitionError):
                machine.apply(signal)
    # Replaying the applied signals from the initial state reproduces
    # the final state.
    replay = WorkerStateMachine()
    for signal in applied:
        replay.apply(signal)
    assert replay.state == machine.state
