"""The worker's lifecycle has one holder (paper Fig. 5, §4.3).

The remote node configuration engine holds the state machine, the Start
generation and the halted flag; the worker's one run process serves
each Start in turn and reads the holder only between tasks.  These tests
pin the races a split lifecycle lost signals in (a Start arriving while
a Stop unwinds), the process census (one run process per host), and the
rule-base following transitions it did not order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from repro.core import AdaptiveClusterFramework, FrameworkConfig
from repro.core.codeserver import CODE_SERVER_PORT, CodeServer
from repro.core.entries import ResultEntry, TaskEntry
from repro.core.metrics import Metrics
from repro.core.signals import Signal
from repro.core.states import WorkerState, WorkerStateMachine
from repro.core.worker import WorkerHost
from repro.net import Address, Network
from repro.node.cluster import testbed_small
from repro.node.machine import FAST_PC, Node
from repro.runtime import SimulatedRuntime
from repro.tuplespace import JavaSpace, SpaceProxy, SpaceServer
from tests.core.toyapp import SumOfSquares

SPACE_ADDR = Address("master", 4155)


def make_host(rt, n_tasks, task_cost, prefetch=1, transactional=False):
    """One unmanaged worker host (signals injected through
    ``handle_signal``) over a space holding ``n_tasks`` tasks."""
    net = Network(rt)
    space = JavaSpace(rt)
    SpaceServer(rt, space, net, SPACE_ADDR).start()
    app = SumOfSquares(n=n_tasks, task_cost=task_cost)
    code = CodeServer(rt, net, "master")
    code.publish(app.app_id, app.classload_profile())
    code.start()
    host = WorkerHost(
        rt, Node(rt, net, "w1", FAST_PC), app,
        space_factory=lambda: SpaceProxy(net, "w1", SPACE_ADDR),
        code_server=Address("master", CODE_SERVER_PORT),
        netmgmt_address=None,
        metrics=Metrics(rt),
        worker_poll_ms=50.0,
        prefetch=prefetch,
        transactional=transactional,
    )
    host.running = True
    for i in range(n_tasks):
        space.write(TaskEntry(app.app_id, i, i))
    return space, host


def drive(rt, fn):
    proc = rt.kernel.spawn(fn, name="driver")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


@pytest.mark.parametrize("last,state,loads", [
    (Signal.PAUSE, WorkerState.PAUSED, 2),   # the second Start is served
    (Signal.STOP, WorkerState.STOPPED, 1),   # undone before it was served
])
def test_signal_during_a_stops_unwind_is_not_lost(rt, last, state, loads):
    """Stop, Start and then Pause (or Stop) arrive 10 ms apart while a
    2 s task is computing: the task finishes, and then the worker does
    what the last signal says instead of computing on."""
    space, host = make_host(rt, n_tasks=20, task_cost=2000.0)

    def body():
        host.handle_signal(Signal.START)
        rt.sleep(3000.0)                 # class load, then mid-task
        before = host.tasks_done
        host.handle_signal(Signal.STOP)
        rt.sleep(10.0)
        host.handle_signal(Signal.START)
        rt.sleep(10.0)
        host.handle_signal(last)
        rt.sleep(10_000.0)
        observed = (host.state, host.tasks_done - before,
                    host.engine.loads, host.engine.classes_loaded)
        host.stop()
        return observed

    observed_state, finished, loaded, holds = drive(rt, body)
    assert observed_state is state
    assert finished <= 1                 # only the task that was computing
    assert loaded == loads
    assert holds == (state is WorkerState.PAUSED)


def test_one_run_process_serves_every_start(rt):
    space, host = make_host(rt, n_tasks=40, task_cost=100.0)
    spawned = []
    spawn = rt.spawn

    def recording_spawn(fn, name="proc"):
        spawned.append(name)
        return spawn(fn, name)

    rt.spawn = recording_spawn

    def body():
        for signal in (Signal.START, Signal.STOP, Signal.START, Signal.PAUSE,
                       Signal.RESUME, Signal.STOP, Signal.START):
            host.handle_signal(signal)
            rt.sleep(600.0)
        host.stop()
        return host.engine.loads, host.state

    loads, state = drive(rt, body)
    assert [name for name in spawned if name.startswith("worker-run")] == [
        "worker-run:w1"]
    assert loads == 3                    # each Start after a Stop reloads
    assert state is WorkerState.RUNNING
    honored = [p["signal"] for _, p in
               host.metrics.events_named("signal-honored")]
    assert honored == ["start", "stop", "start", "pause", "resume", "stop",
                       "start"]


_GAPS = st.one_of(st.sampled_from([0.0, 1.0, 10.0]),
                  st.floats(min_value=0.0, max_value=900.0))


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.tuples(_GAPS, st.integers(0, 3)),
                      min_size=1, max_size=12),
       prefetch=st.sampled_from([1, 3]),
       transactional=st.booleans())
def test_random_signals_keep_the_lifecycle_whole(steps, prefetch,
                                                 transactional):
    """START/STOP/PAUSE/RESUME at random instants (mid-task, mid-unwind,
    while paused): no task cycle begins unless the holder says Running,
    run loops never overlap, classes load and unload in turn, and every
    task is computed once or given back."""
    rt = SimulatedRuntime()
    try:
        n_tasks = 12
        space, host = make_host(rt, n_tasks, task_cost=150.0,
                                prefetch=prefetch,
                                transactional=transactional)
        violations: list[str] = []
        active: list[int] = []
        classes: list[str] = []

        cycle, loop = host._cycle, host._worker_loop

        def checked_cycle(proxy, template):
            if host.state is not WorkerState.RUNNING:
                violations.append(f"cycle began while {host.state}")
            return cycle(proxy, template)

        def checked_loop(generation):
            active.append(generation)
            if len(active) > 1:
                violations.append(f"loops overlap: {active}")
            try:
                loop(generation)
            finally:
                active.remove(generation)

        engine = host.engine
        load, unload = engine.load_classes, engine.unload_classes

        def recorded_load(app_id):
            classes.append("load")
            return load(app_id)

        def recorded_unload():
            classes.append("unload")
            unload()

        host._cycle, host._worker_loop = checked_cycle, checked_loop
        engine.load_classes, engine.unload_classes = (recorded_load,
                                                      recorded_unload)
        stops = 0

        def body():
            nonlocal stops
            for gap, pick in steps:
                rt.sleep(gap)
                legal = [s for s in Signal
                         if WorkerStateMachine(host.state).can_apply(s)]
                signal = legal[pick % len(legal)]
                stops += signal is Signal.STOP
                host.handle_signal(signal)
            rt.sleep(n_tasks * 400.0)   # settle: every task done or parked
            observed = (host.state, engine.classes_loaded,
                        space.count(TaskEntry()), space.count(ResultEntry()))
            host.stop()
            return observed

        state, loaded, queued, results = drive(rt, body)
        assert violations == []
        assert classes == ["load", "unload"] * (len(classes) // 2) + (
            ["load"] if len(classes) % 2 else [])
        assert classes.count("unload") <= stops + 1     # + the host's stop
        assert loaded == (state is not WorkerState.STOPPED)
        assert queued + results == n_tasks   # none lost, none duplicated
        if state is WorkerState.RUNNING:
            assert results == n_tasks
    finally:
        rt.shutdown()


def test_rule_base_adopts_transitions_it_did_not_order(rt):
    """A governor-style Pause and Resume under a load in the Pause band:
    the rule-base follows both, so it Pauses the resumed worker itself
    rather than logging an illegal Pause and then falling silent."""
    cluster = testbed_small(rt, workers=1)
    framework = AdaptiveClusterFramework(
        rt, cluster, SumOfSquares(n=200, task_cost=200.0),
        FrameworkConfig(compute_real=False))
    node = cluster.workers[0]

    def body():
        framework.start()
        rt.spawn(framework.run, name="job")
        rt.sleep(3000.0)                    # the idle worker was Started
        host = framework.worker_hosts[0]
        record = framework.netmgmt.inference.workers()[0]
        started = host.state
        host.handle_signal(Signal.PAUSE)    # as the preemption governor does
        node.cpu.set_background("user", 40.0)
        rt.sleep(3000.0)
        paused = host.state, record.assumed_state
        host.handle_signal(Signal.RESUME)
        rt.sleep(4000.0)
        done = host.tasks_done
        rt.sleep(6000.0)
        observed = (started, paused, host.state, record.assumed_state,
                    host.tasks_done - done)
        framework.shutdown()
        return observed

    started, paused, state, assumed, progress = drive(rt, body)
    assert started is WorkerState.RUNNING
    assert paused == (WorkerState.PAUSED, WorkerState.PAUSED)
    assert framework.metrics.events_named("illegal-signal") == []
    assert (state, assumed) == (WorkerState.PAUSED, WorkerState.PAUSED)
    assert progress == 0                    # no computing in the Pause band
