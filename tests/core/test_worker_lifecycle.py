"""The worker's lifecycle has one holder (paper Fig. 5, §4.3).

The remote node configuration engine holds the state machine, the Start
generation and the halted flag; the worker's one run process serves
each Start in turn and reads the holder only between tasks.  These tests
pin the races a split lifecycle lost signals in (a Start arriving while
a Stop unwinds), the process census (one run process per host), and the
one decider: the preemption governor is a fact source of the rule-base,
and the worker's own Stop reaches the rule-base's record as a fact.
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
from repro.errors import ConnectionClosedError
from repro.experiments.chaos import TENANT_STRIDE, TenantSquares
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


def test_governor_never_resumes_a_worker_into_the_pause_band(rt):
    """The preemption governor is a fact source, not a second sender.

    A monitored worker at prefetch 4 runs under a 40 % background load
    (the Pause band) from t0, and an urgent tenant queues work from
    t0 + 500 ms.  The governor's poll gets the worker Paused before the
    rule-base first samples the Pause band; when the governor lets go of
    the carry, the rule-base keeps it Paused.  Two senders used to
    resume it there and let it compute for ~506 ms more."""
    cluster = testbed_small(rt, workers=1)
    framework = AdaptiveClusterFramework(
        rt, cluster, TenantSquares(base=0, n=200, task_cost=200.0),
        FrameworkConfig(compute_real=False, worker_prefetch=4,
                        preemption_poll_ms=500.0))
    node = cluster.workers[0]
    t0, end = 3000.0, 9000.0
    bands = []                              # what each load sample decided

    def quietly(run):
        try:
            run()
        except ConnectionClosedError:
            pass                            # the masters outlive the test

    def body():
        framework.start()
        inference = framework.netmgmt.inference
        observe = inference.observe

        def sampled(worker_id, load, now_ms):
            signal = observe(worker_id, load, now_ms)
            bands.append((now_ms, inference.worker(worker_id).facts.band))
            return signal

        inference.observe = sampled
        rt.spawn(lambda: quietly(framework.run), name="job")
        rt.sleep(t0)                        # the idle worker was Started
        node.cpu.set_background("user", 40.0)
        rt.sleep(500.0)
        urgent = framework.attach_tenant_master(
            TenantSquares(base=TENANT_STRIDE, n=8, task_cost=200.0),
            "urgent", priority=1)
        rt.spawn(lambda: quietly(urgent.run), name="urgent")
        rt.sleep(1500.0)
        host = framework.worker_hosts[0]
        done = host.tasks_done
        rt.sleep(end - rt.now())
        record = framework.netmgmt.inference.workers()[0]
        observed = (host.state, record.assumed_state, host.tasks_done - done)
        framework.shutdown()
        return observed

    state, assumed, progress = drive(rt, body)
    first_busy = next(t for t, band in bands if t >= t0 and band == "busy")
    running, since = 0.0, None      # Running ms within [first_busy, end]
    for t, payload in framework.metrics.events_named("worker-transition") + [
            (end, {"new": "end"})]:
        if since is not None:
            running += max(0.0, min(t, end) - max(since, first_busy))
        since = t if payload["new"] == "running" else None
    assert framework.governor.stats["preemptions"] >= 1
    assert running == 0.0        # not one ms Running in the Pause band
    assert framework.metrics.events_named("illegal-signal") == []
    assert (state, assumed) == (WorkerState.PAUSED, WorkerState.PAUSED)
    assert progress == 0                    # no computing in the Pause band


@pytest.mark.parametrize("monitoring", [False, True])
def test_own_stop_reaches_the_record_on_both_links(rt, monitoring):
    """The worker's own Stop (here: its loop fails) is the one transition
    the rule-base does not order.  It reaches the record as a fact on the
    in-process link and on the control socket alike; the recruit lapses
    with it, while a monitored worker is Started by the next idle sample."""
    cluster = testbed_small(rt, workers=1)
    framework = AdaptiveClusterFramework(
        rt, cluster, SumOfSquares(n=400, task_cost=200.0),
        FrameworkConfig(compute_real=False, monitoring=monitoring))

    def body():
        framework.start()
        host = framework.worker_hosts[0]
        rt.spawn(framework.run, name="job")
        rt.sleep(2500.0)                    # recruited or sampled: Running
        record = framework.inference.workers()[0]
        started = host.state, record.assumed_state
        cycle = host._cycle

        def failing_once(proxy, template):
            host._cycle = cycle
            raise RuntimeError("a reply the worker cannot read")

        host._cycle = failing_once
        rt.sleep(300.0)
        stopped = host.state, record.assumed_state
        rt.sleep(1000.0)                    # one more monitor poll
        later = host.state, record.assumed_state
        framework.master.cancel()
        framework.shutdown()
        return started, stopped, later

    started, stopped, later = drive(rt, body)
    assert started == (WorkerState.RUNNING, WorkerState.RUNNING)
    assert framework.metrics.events_named("worker-error") != []
    assert stopped == (WorkerState.STOPPED, WorkerState.STOPPED)
    after = WorkerState.RUNNING if monitoring else WorkerState.STOPPED
    assert later == (after, after)
    assert framework.metrics.events_named("illegal-signal") == []
