"""Stale-data guard: stop trusting load samples the agent stopped sending.

Unit half: :meth:`InferenceEngine.observe_failure` as a pure rule.
Integration half: a worker whose SNMP agent dies keeps computing on a
node the master can no longer see — after ``staleness_ms`` the module
stops it instead of guessing.
"""

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

STALENESS_MS = 2_000.0


# -- the rule ----------------------------------------------------------------


def test_guard_disabled_by_default():
    engine = InferenceEngine()
    record = engine.register("w1")
    record.assumed_state = WorkerState.RUNNING
    assert engine.observe_failure(record.worker_id, 1e9) is None
    assert record.assumed_state == WorkerState.RUNNING


def test_running_worker_with_stale_sample_is_stopped():
    engine = InferenceEngine(staleness_ms=1_000.0)
    record = engine.register("w1")
    engine.observe(record.worker_id, 5.0, now_ms=0.0)      # idle → Start
    assert record.assumed_state == WorkerState.RUNNING
    assert engine.observe_failure(record.worker_id, 500.0) is None   # fresh
    assert engine.observe_failure(record.worker_id, 1_500.0) == Signal.STOP
    assert record.assumed_state == WorkerState.STOPPED
    # Already stopped: a still-failing agent fires nothing further.
    assert engine.observe_failure(record.worker_id, 3_000.0) is None


def test_paused_worker_with_stale_sample_is_stopped():
    engine = InferenceEngine(staleness_ms=1_000.0)
    record = engine.register("w1")
    record.assumed_state = WorkerState.PAUSED
    record.last_sample_ms = 0.0
    assert engine.observe_failure(record.worker_id, 2_000.0) == Signal.STOP


def test_never_sampled_stopped_worker_fires_nothing():
    engine = InferenceEngine(staleness_ms=1_000.0)
    record = engine.register("w1")
    assert engine.observe_failure(record.worker_id, 5_000.0) is None
    assert record.assumed_state == WorkerState.STOPPED


# -- the module --------------------------------------------------------------


@pytest.fixture()
def env(rt):
    net = Network(rt)
    node = Node(rt, net, "w1", FAST_PC)
    node.start_agent()
    module = NetworkManagementModule(
        rt, net, "master", Metrics(rt),
        InferenceEngine(staleness_ms=STALENESS_MS), poll_interval_ms=500.0)
    record = module.inference.register("w1")
    return net, node, module, record


def test_dead_agent_eventually_stops_the_worker(rt, env):
    net, node, module, record = env

    def proc():
        assert module.poll_once(record) == Signal.START    # healthy + idle
        node.stop_agent()
        first = module.poll_once(record)                   # still fresh
        rt.sleep(STALENESS_MS + 500.0)
        second = module.poll_once(record)                  # now stale
        return first, second

    first, second = run_in_sim(rt, proc)
    assert first is None
    assert second == Signal.STOP
    assert record.assumed_state == WorkerState.STOPPED
    assert module.stats["stale_stops"] == 1
    assert module.stats["poll_failures"] == 2
    events = module.metrics.events_named("stale-sample")
    assert len(events) == 1
    assert events[0][1]["worker"] == "w1"


def test_recovered_agent_restarts_the_worker(rt, env):
    net, node, module, record = env

    def proc():
        assert module.poll_once(record) == Signal.START
        node.stop_agent()
        rt.sleep(STALENESS_MS + 500.0)
        assert module.poll_once(record) == Signal.STOP
        node.start_agent()
        rt.sleep(500.0)
        return module.poll_once(record)                    # fresh idle sample

    assert run_in_sim(rt, proc) == Signal.START
    assert record.assumed_state == WorkerState.RUNNING
