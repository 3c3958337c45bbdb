"""Worker host unit tests: signal handling without a network management
module (signals injected directly via ``handle_signal``)."""

from __future__ import annotations

import pytest

from repro.core.application import ClassLoadProfile
from repro.core.codeserver import CODE_SERVER_PORT, CodeServer
from repro.core.entries import ResultEntry, TaskEntry
from repro.core.metrics import Metrics
from repro.core.signals import Signal
from repro.core.states import WorkerState
from repro.core.worker import WorkerHost
from repro.net import Address, Network
from repro.node.machine import FAST_PC, Node
from repro.tuplespace import JavaSpace, SpaceProxy, SpaceServer
from tests.core.toyapp import SumOfSquares

SPACE_ADDR = Address("master", 4155)


@pytest.fixture()
def env(rt):
    net = Network(rt)
    space = JavaSpace(rt)
    SpaceServer(rt, space, net, SPACE_ADDR).start()
    app = SumOfSquares(n=6, task_cost=100.0)
    code = CodeServer(rt, net, "master")
    code.publish(app.app_id, app.classload_profile())
    code.start()
    node = Node(rt, net, "w1", FAST_PC)
    host = WorkerHost(
        rt, node, app,
        space_factory=lambda: SpaceProxy(net, "w1", SPACE_ADDR),
        code_server=Address("master", CODE_SERVER_PORT),
        netmgmt_address=None,           # unmanaged: direct signal injection
        metrics=Metrics(rt),
        worker_poll_ms=50.0,
    )
    host.running = True
    return net, space, app, host


def fill_tasks(space, app, n):
    for i in range(n):
        space.write(TaskEntry(app.app_id, i, i))


def drive(rt, fn):
    proc = rt.kernel.spawn(fn, name="driver")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_start_signal_spawns_worker_that_computes(rt, env):
    net, space, app, host = env

    def body():
        fill_tasks(space, app, 6)
        host.handle_signal(Signal.START)
        rt.sleep(3000.0)
        results = space.count(ResultEntry())
        host.stop()
        return results, host.tasks_done, host.state

    results, done, state = drive(rt, body)
    assert results == 6
    assert done == 6
    assert state == WorkerState.RUNNING


def test_illegal_signal_recorded_and_ignored(rt, env):
    net, space, app, host = env

    def body():
        host.handle_signal(Signal.RESUME)   # illegal in STOPPED
        return host.state

    assert drive(rt, body) == WorkerState.STOPPED
    events = host.metrics.events_named("illegal-signal")
    assert len(events) == 1
    assert events[0][1]["signal"] == "resume"


def test_pause_blocks_between_tasks_and_resume_continues(rt, env):
    net, space, app, host = env

    def body():
        fill_tasks(space, app, 6)
        host.handle_signal(Signal.START)
        rt.sleep(700.0)                  # a few tasks in
        host.handle_signal(Signal.PAUSE)
        rt.sleep(1000.0)
        paused_done = host.tasks_done
        rt.sleep(1000.0)
        still_done = host.tasks_done     # no progress while paused
        host.handle_signal(Signal.RESUME)
        rt.sleep(2000.0)
        host.stop()
        return paused_done, still_done, host.tasks_done

    paused_done, still_done, final_done = drive(rt, body)
    assert paused_done == still_done     # frozen while paused
    assert final_done == 6               # all completed after resume


def test_stop_lets_current_task_finish(rt, env):
    net, space, app, host = env

    def body():
        fill_tasks(space, app, 6)
        host.handle_signal(Signal.START)
        rt.sleep(600.0)                 # worker mid-task
        before = host.tasks_done
        host.handle_signal(Signal.STOP)
        rt.sleep(500.0)
        after = host.tasks_done
        return before, after, host.state, space.count(ResultEntry())

    before, after, state, results = drive(rt, body)
    assert state == WorkerState.STOPPED
    assert after >= before              # possibly +1: the in-flight task
    assert after <= before + 1
    assert results == after             # every finished task produced a result


def test_stop_start_cycle_reloads_classes(rt, env):
    net, space, app, host = env

    def body():
        fill_tasks(space, app, 6)
        host.handle_signal(Signal.START)
        rt.sleep(800.0)
        host.handle_signal(Signal.STOP)
        rt.sleep(500.0)
        host.handle_signal(Signal.START)
        rt.sleep(3000.0)
        host.stop()
        return host.engine.loads, host.tasks_done

    loads, done = drive(rt, body)
    assert loads == 2
    assert done == 6


def test_worker_time_spans_first_take_to_last_result(rt, env):
    net, space, app, host = env

    def body():
        fill_tasks(space, app, 3)
        host.handle_signal(Signal.START)
        rt.sleep(2000.0)
        host.stop()
        return host.worker_time_ms(), host.first_take_ms, host.last_result_ms

    span, first, last = drive(rt, body)
    assert first is not None and last is not None
    assert span == pytest.approx(last - first)
    assert span >= 3 * 100.0            # at least the compute time


def test_worker_time_none_before_any_task(rt, env):
    net, space, app, host = env
    assert host.worker_time_ms() is None


def test_compute_real_false_writes_placeholder_results(rt, env):
    net, space, app, host = env
    host.compute_real = False

    def body():
        fill_tasks(space, app, 2)
        host.handle_signal(Signal.START)
        rt.sleep(1500.0)
        results = [space.take(ResultEntry(), timeout_ms=0.0) for _ in range(2)]
        host.stop()
        return [r.payload for r in results if r is not None]

    assert drive(rt, body) == [None, None]
