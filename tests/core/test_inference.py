"""Inference engine: the rule base is one pure table over the facts."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.core.inference import Facts, InferenceEngine
from repro.core.signals import Signal, ThresholdPolicy
from repro.core.states import WorkerState, WorkerStateMachine


@pytest.fixture()
def engine():
    return InferenceEngine()


# The paper's rule table, exhaustively.
RULES = [
    (WorkerState.STOPPED, 10.0, Signal.START),
    (WorkerState.STOPPED, 25.0, Signal.START),   # boundary: 0-25 inclusive
    (WorkerState.PAUSED, 10.0, Signal.RESUME),
    (WorkerState.RUNNING, 10.0, None),
    (WorkerState.RUNNING, 40.0, Signal.PAUSE),
    (WorkerState.RUNNING, 50.0, Signal.PAUSE),   # boundary: 25-50
    (WorkerState.PAUSED, 40.0, None),
    (WorkerState.STOPPED, 40.0, None),
    (WorkerState.RUNNING, 80.0, Signal.STOP),
    (WorkerState.RUNNING, 51.0, Signal.STOP),
    (WorkerState.PAUSED, 90.0, Signal.STOP),
    (WorkerState.STOPPED, 90.0, None),
]


def sampled(engine, load):
    """The facts of a fresh sample at ``load``."""
    return Facts(band=engine.policy.band(load))


@pytest.mark.parametrize("state,load,expected", RULES)
def test_rule_table(engine, state, load, expected):
    assert engine.decide(state, sampled(engine, load)) == expected


# The facts the other sources set, over and above the sampled band.
FACT_RULES = [
    # stale samples stop a computing worker, whatever the band said
    (WorkerState.RUNNING, Facts(band="idle", stale=True), Signal.STOP),
    (WorkerState.PAUSED, Facts(stale=True), Signal.STOP),
    (WorkerState.STOPPED, Facts(band="idle", stale=True), None),
    # a carry holding urgent work up pauses, and blocks a Resume
    (WorkerState.RUNNING, Facts(band="idle", held=True), Signal.PAUSE),
    (WorkerState.RUNNING, Facts(recruited=True, held=True), Signal.PAUSE),
    (WorkerState.PAUSED, Facts(band="idle", held=True), None),
    (WorkerState.RUNNING, Facts(band="loaded", held=True), Signal.STOP),
    # released: Resume where the band allows, never in the Pause band
    (WorkerState.PAUSED, Facts(band="busy"), None),
    (WorkerState.PAUSED, Facts(recruited=True), Signal.RESUME),
    # the recruit stands in for an idle sample only when there is none
    (WorkerState.STOPPED, Facts(recruited=True), Signal.START),
    (WorkerState.STOPPED, Facts(band="busy", recruited=True), None),
    (WorkerState.STOPPED, Facts(), None),
    (WorkerState.PAUSED, Facts(), None),
]


@pytest.mark.parametrize("state,facts,expected", FACT_RULES)
def test_fact_table(engine, state, facts, expected):
    assert engine.decide(state, facts) == expected


def test_decision_signals_are_always_legal_transitions():
    """Property, over every (state, facts) combination: the table never
    emits an illegal signal, so every path it orders is a Fig. 5 path."""
    engine = InferenceEngine()
    for state, band, stale, held, recruited in itertools.product(
            WorkerState, (None, "idle", "busy", "loaded"),
            (False, True), (False, True), (False, True)):
        facts = Facts(band, stale, held, recruited)
        signal = engine.decide(state, facts)
        if signal is not None:
            WorkerStateMachine(initial=state).apply(signal)  # must not raise


@given(load=st.floats(0.0, 100.0, allow_nan=False))
def test_decision_is_deterministic(load):
    a, b = InferenceEngine(), InferenceEngine()
    assert (a.decide(WorkerState.RUNNING, sampled(a, load))
            == b.decide(WorkerState.RUNNING, sampled(b, load)))


def test_custom_thresholds_shift_bands():
    engine = InferenceEngine(ThresholdPolicy(idle_below=10.0, stop_above=80.0))
    assert engine.decide(WorkerState.STOPPED, sampled(engine, 9.0)) == Signal.START
    assert engine.decide(WorkerState.RUNNING, sampled(engine, 50.0)) == Signal.PAUSE
    assert engine.decide(WorkerState.RUNNING, sampled(engine, 81.0)) == Signal.STOP


def test_invalid_thresholds_rejected():
    with pytest.raises(ValueError):
        ThresholdPolicy(idle_below=60.0, stop_above=50.0)
    with pytest.raises(ValueError):
        ThresholdPolicy(idle_below=-1.0)


def test_registration_assigns_unique_increasing_ids(engine):
    a = engine.register("host-a")
    b = engine.register("host-b")
    assert (a.worker_id, b.worker_id) == (1, 2)
    assert engine.worker(1).hostname == "host-a"
    assert len(engine.workers()) == 2


def test_observe_tracks_state_and_history(engine):
    record = engine.register("w")
    assert engine.observe(record.worker_id, 5.0, now_ms=100.0) == Signal.START
    assert record.assumed_state == WorkerState.RUNNING
    assert engine.observe(record.worker_id, 5.0, now_ms=200.0) is None
    assert engine.observe(record.worker_id, 40.0, now_ms=300.0) == Signal.PAUSE
    assert record.assumed_state == WorkerState.PAUSED
    assert engine.observe(record.worker_id, 90.0, now_ms=400.0) == Signal.STOP
    assert record.assumed_state == WorkerState.STOPPED
    # Each sample is decided once; the last one set the facts.
    assert record.facts.band == "loaded" and record.last_sample_ms == 400.0
    assert engine.stats["decisions"] == 4 and engine.stats["signals"] == 3


def test_paper_load_cycle_produces_paper_signal_sequence(engine):
    """Idle → loadsim2 (100 %) → idle → loadsim1 (46 %) → idle (Figs 9–11)."""
    record = engine.register("w")
    loads = [5.0, 100.0, 5.0, 46.0, 5.0]
    signals = [engine.observe(record.worker_id, load, now_ms=i * 1000.0)
               for i, load in enumerate(loads)]
    assert signals == [Signal.START, Signal.STOP, Signal.START, Signal.PAUSE,
                       Signal.RESUME]


def test_flapping_load_generates_a_signal_storm(engine):
    """The engine reacts to every sample (the paper's rule-base): a load
    oscillating across the 25 % idle threshold flips the signal each
    time."""
    record = engine.register("w")
    signals = [engine.observe(record.worker_id, load, now_ms=i * 1000.0)
               for i, load in enumerate([10.0, 30.0] * 6)]
    signals = [s for s in signals if s]
    assert signals[0] == Signal.START
    assert signals.count(Signal.PAUSE) >= 5
    assert signals.count(Signal.RESUME) >= 5


def test_orders_go_over_the_link(engine):
    """What the table decides is applied to the record and sent over the
    worker's link, whichever fact source set the facts."""
    sent = []
    record = engine.register("w", sent.append)
    engine.recruit()                                         # Start
    assert engine.observe_carry(record.worker_id, True) == Signal.PAUSE
    assert engine.observe(record.worker_id, 40.0, now_ms=0.0) is None
    assert engine.observe_carry(record.worker_id, False) is None  # busy band
    assert engine.observe(record.worker_id, 5.0, now_ms=1.0) == Signal.RESUME
    assert sent == [Signal.START, Signal.PAUSE, Signal.RESUME]
    assert record.assumed_state == WorkerState.RUNNING


def test_own_stop_lapses_the_recruit(engine):
    sent = []
    record = engine.register("w", sent.append)
    engine.recruit()
    engine.observe_stop(record.worker_id)
    assert record.assumed_state == WorkerState.STOPPED
    assert engine.observe_carry(record.worker_id, False) is None
    assert sent == [Signal.START]
    engine.recruit()                                         # a new recruit
    assert sent == [Signal.START, Signal.START]


def test_unregister(engine):
    record = engine.register("w")
    engine.unregister(record.worker_id)
    assert engine.workers() == []
