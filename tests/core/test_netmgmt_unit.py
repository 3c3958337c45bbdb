"""Network management module unit tests (poll_once, registration, stats)."""

from __future__ import annotations

import pytest

from repro.core.inference import InferenceEngine
from repro.core.metrics import Metrics
from repro.core.netmgmt import NetworkManagementModule
from repro.core.signals import Signal
from repro.core.states import WorkerState
from repro.net import Network
from repro.node.machine import FAST_PC, Node
from tests.conftest import run_in_sim


@pytest.fixture()
def env(rt):
    net = Network(rt)
    node = Node(rt, net, "w1", FAST_PC)
    node.start_agent()
    module = NetworkManagementModule(rt, net, "master", Metrics(rt),
                                     InferenceEngine(), poll_interval_ms=500.0)
    record = module.inference.register("w1")
    return net, node, module, record


def test_poll_once_idle_node_sends_start(rt, env):
    net, node, module, record = env

    def proc():
        return module.poll_once(record)

    assert run_in_sim(rt, proc) == Signal.START
    assert record.assumed_state == WorkerState.RUNNING
    assert module.stats["polls"] == 1
    assert module.stats["signals_sent"] == 1


def test_poll_once_running_idle_node_no_signal(rt, env):
    net, node, module, record = env
    record.assumed_state = WorkerState.RUNNING

    def proc():
        return module.poll_once(record)

    assert run_in_sim(rt, proc) is None


def test_poll_once_loaded_node_sends_stop(rt, env):
    net, node, module, record = env
    record.assumed_state = WorkerState.RUNNING

    def proc():
        node.cpu.set_background("user", 90.0)
        rt.sleep(1100.0)  # let the 1 s averaging window fill
        return module.poll_once(record)

    assert run_in_sim(rt, proc) == Signal.STOP


def test_poll_once_busy_band_sends_pause(rt, env):
    net, node, module, record = env
    record.assumed_state = WorkerState.RUNNING

    def proc():
        node.cpu.set_background("user", 40.0)
        rt.sleep(1100.0)
        return module.poll_once(record)

    assert run_in_sim(rt, proc) == Signal.PAUSE


def test_poll_failure_counts_and_returns_none(rt, env):
    net, node, module, record = env
    node.stop_agent()  # unreachable worker
    module.snmp.timeout_ms = 20.0
    module.snmp.retries = 0

    def proc():
        return module.poll_once(record)

    assert run_in_sim(rt, proc) is None
    assert module.stats["poll_failures"] == 1


def test_external_metric_ignores_worker_own_compute(rt, env):
    """The framework's own task never triggers Pause/Stop on its worker."""
    net, node, module, record = env
    record.assumed_state = WorkerState.RUNNING

    def proc():
        rt.spawn(lambda: node.cpu.execute(2000.0), name="compute")
        rt.sleep(1100.0)  # foreign task at 100 % total
        return module.poll_once(record)

    assert run_in_sim(rt, proc) is None  # external load still 0


def test_total_load_metric_would_evict_computing_worker(rt, env):
    """Ablation wiring: monitoring hrProcessorLoad (total) misreads the
    worker's own compute as user load — the reason the inference engine
    polls the external-load OID by default."""
    net, node, module, record = env
    total_module = NetworkManagementModule(
        rt, net, "master2", Metrics(rt), InferenceEngine(),
        load_metric="total")
    total_record = total_module.inference.register("w1")
    total_record.assumed_state = WorkerState.RUNNING

    def proc():
        rt.spawn(lambda: node.cpu.execute(2000.0), name="compute")
        rt.sleep(1100.0)
        return total_module.poll_once(total_record)

    assert run_in_sim(rt, proc) == Signal.STOP


def test_invalid_load_metric_rejected(rt, env):
    net, *_ = env
    with pytest.raises(ValueError):
        NetworkManagementModule(rt, net, "m", Metrics(rt), InferenceEngine(),
                                load_metric="bogus")


def test_load_history_recorded_per_worker(rt, env):
    net, node, module, record = env

    def proc():
        module.poll_once(record)
        rt.sleep(500.0)
        module.poll_once(record)

    run_in_sim(rt, proc)
    assert len(record.load_history) == 2
    assert f"load/w1" in module.metrics.series
