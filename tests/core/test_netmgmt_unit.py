"""Network management module unit tests (the monitor's poll, registration,
stats).

Each test drives the path a deployment runs: the module is started, a
worker's client registers over the rule-base socket, and the module's
monitor polls the worker's agent every ``poll_interval_ms`` by callback,
sending its orders back down that socket."""

from __future__ import annotations

import pytest

from repro.core.inference import InferenceEngine
from repro.core.metrics import Metrics
from repro.core.netmgmt import NetworkManagementModule
from repro.core.signals import Signal
from repro.errors import ConnectionClosedError
from repro.net import Network
from repro.node.machine import FAST_PC, Node
from tests.conftest import run_in_sim

POLL_MS = 500.0


@pytest.fixture()
def env(rt):
    net = Network(rt)
    node = Node(rt, net, "w1", FAST_PC)
    node.start_agent()
    module = NetworkManagementModule(rt, net, "master", Metrics(rt),
                                     InferenceEngine(), poll_interval_ms=POLL_MS)
    return net, node, module


def monitor(rt, net, module, scenario):
    """Start ``module``, register ``w1`` over its rule-base socket as a
    worker's client does (Fig. 4 steps 2-3), run ``scenario()`` while the
    monitor polls w1's agent, then stop the module.  Returns the signals
    that came down the socket, in order, and w1's record."""
    signals = []

    def on_message(conn):
        try:
            while (message := conn.poll()) is not None:
                if message["type"] == "signal":
                    signals.append(Signal(message["signal"]))
        except ConnectionClosedError:
            pass

    def proc():
        module.start()
        conn = net.connect("w1", module.address)
        conn.send({"type": "register", "host": "w1"})
        reply = conn.receive()
        assert reply["type"] == "registered"
        conn.serve(lambda: on_message(conn))
        on_message(conn)
        record = module.inference.worker(reply["worker_id"])
        scenario()
        module.stop()
        return record

    return signals, run_in_sim(rt, proc)


def test_poll_once_idle_node_sends_start(rt, env):
    net, node, module = env
    signals, _ = monitor(rt, net, module, lambda: rt.sleep(1.0))
    assert signals == [Signal.START]
    assert module.stats["polls"] == 1
    assert module.stats["signals_sent"] == 1


def test_poll_once_running_idle_node_no_signal(rt, env):
    """Once the idle worker runs, further idle samples order nothing."""
    net, node, module = env
    signals, _ = monitor(rt, net, module,
                         lambda: rt.sleep(3 * POLL_MS + 10.0))
    assert signals == [Signal.START]
    assert module.stats["polls"] == 4
    assert module.stats["signals_sent"] == 1


def test_poll_once_loaded_node_sends_stop(rt, env):
    net, node, module = env

    def scenario():
        rt.sleep(1.0)
        node.cpu.set_background("user", 90.0)
        rt.sleep(1100.0 + POLL_MS)  # the 1 s averaging window fills

    signals, _ = monitor(rt, net, module, scenario)
    assert signals == [Signal.START, Signal.STOP]


def test_poll_once_busy_band_sends_pause(rt, env):
    net, node, module = env

    def scenario():
        rt.sleep(1.0)
        node.cpu.set_background("user", 40.0)
        rt.sleep(1100.0 + POLL_MS)

    signals, _ = monitor(rt, net, module, scenario)
    assert signals == [Signal.START, Signal.PAUSE]


def test_poll_failure_counts_and_returns_none(rt, env):
    """An unreachable agent: the poll fails, nothing is ordered."""
    net, node, module = env
    node.stop_agent()
    module.snmp.timeout_ms = 20.0
    module.snmp.retries = 0
    signals, _ = monitor(rt, net, module, lambda: rt.sleep(30.0))
    assert signals == []
    assert module.stats["polls"] == 1
    assert module.stats["poll_failures"] == 1


def test_external_metric_ignores_worker_own_compute(rt, env):
    """The framework's own task never triggers Pause/Stop on its worker."""
    net, node, module = env

    def scenario():
        rt.spawn(lambda: node.cpu.execute(2000.0), name="compute")
        rt.sleep(1100.0 + POLL_MS)  # foreign task at 100 % total

    signals, _ = monitor(rt, net, module, scenario)
    assert signals == [Signal.START]  # external load still 0


def test_load_history_recorded_per_worker(rt, env):
    """Each of w1's samples is decided on its own record: the first, idle,
    orders Start and logs it; the second finds it Running."""
    net, node, module = env
    _, record = monitor(rt, net, module, lambda: rt.sleep(POLL_MS + 1.0))
    assert module.stats["polls"] == 2
    assert module.inference.stats["decisions"] == 2
    assert record.facts.band == "idle" and record.last_sample_ms > POLL_MS
    sent = module.metrics.events_named("signal-sent")
    assert [(p["worker"], p["signal"], p["load"]) for _, p in sent] == [
        ("w1", "start", 0.0)]
