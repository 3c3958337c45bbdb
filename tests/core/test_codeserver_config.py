"""Code server + remote node configuration engine."""

from __future__ import annotations

import pytest

from repro.core.application import ClassLoadProfile
from repro.core.codeserver import CodeServer, download_bundle
from repro.core.config_engine import RemoteNodeConfigurationEngine
from repro.core.signals import Signal
from repro.core.states import WorkerState
from repro.errors import FrameworkError, IllegalTransitionError
from repro.net import Address, LatencyModel, Network
from repro.node.machine import FAST_PC, Node
from tests.conftest import run_in_sim

PROFILE = ClassLoadProfile(work_ref_ms=400.0, demand_percent=60.0,
                           bundle_bytes=100_000)


@pytest.fixture()
def env(rt):
    net = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0,
                                           per_kb_ms=0.05))
    server = CodeServer(rt, net, "master")
    server.publish("my-app", PROFILE)
    server.start()
    node = Node(rt, net, "w1", FAST_PC)
    return net, server, node


def test_download_returns_profile_and_counts(rt, env):
    net, server, _ = env

    def proc():
        return download_bundle(net, "w1", server.address, "my-app")

    profile = run_in_sim(rt, proc)
    assert profile == PROFILE
    assert server.stats["downloads"] == 1
    assert server.stats["bytes_served"] == 100_000


def test_download_unknown_bundle_fails(rt, env):
    net, server, _ = env

    def proc():
        with pytest.raises(FrameworkError, match="no bundle"):
            download_bundle(net, "w1", server.address, "ghost")
        return True

    assert run_in_sim(rt, proc)


def test_bundle_transfer_pays_for_its_size(rt, env):
    net, server, _ = env

    def proc():
        t0 = rt.now()
        download_bundle(net, "w1", server.address, "my-app")
        return rt.now() - t0

    # ~100 KB at 0.05 ms/KB ≈ 5 ms of transfer plus base latencies.
    assert run_in_sim(rt, proc) >= 5.0


def test_engine_load_classes_charges_cpu_spike(rt, env):
    net, server, node = env
    engine = RemoteNodeConfigurationEngine(rt, net, node, server.address)

    def proc():
        t0 = rt.now()
        engine.load_classes("my-app")
        elapsed = rt.now() - t0
        return elapsed, engine.classes_loaded, engine.loads

    elapsed, loaded, loads = run_in_sim(rt, proc)
    # 400 ref-ms at 60 % demand on an 800 MHz node ≈ 667 ms of loading.
    assert elapsed >= 400.0 / 0.6
    assert loaded
    assert loads == 1


def test_engine_unload_and_reload_counts(rt, env):
    net, server, node = env
    engine = RemoteNodeConfigurationEngine(rt, net, node, server.address)

    def proc():
        engine.load_classes("my-app")
        engine.unload_classes()
        engine.load_classes("my-app")
        return engine.loads

    assert run_in_sim(rt, proc) == 2


def test_signal_mailbox_pause_resume_stop_flags(rt, env):
    """Each signal moves the holder's Fig. 5 state; deliver returns the
    (old, new) pair and the Start count, and refuses a pair Fig. 5
    lacks."""
    net, server, node = env
    engine = RemoteNodeConfigurationEngine(rt, net, node, server.address)

    def proc():
        with pytest.raises(IllegalTransitionError):
            engine.deliver(Signal.PAUSE)            # not from Stopped
        steps = [engine.deliver(signal) for signal in
                 (Signal.START, Signal.PAUSE, Signal.RESUME, Signal.STOP,
                  Signal.START)]
        return steps, engine.machine.state

    steps, state = run_in_sim(rt, proc)
    assert steps == [(WorkerState.STOPPED, WorkerState.RUNNING, 1),
                     (WorkerState.RUNNING, WorkerState.PAUSED, 1),
                     (WorkerState.PAUSED, WorkerState.RUNNING, 1),
                     (WorkerState.RUNNING, WorkerState.STOPPED, 1),
                     (WorkerState.STOPPED, WorkerState.RUNNING, 2)]
    assert state is WorkerState.RUNNING


def test_stop_wakes_paused_worker(rt, env):
    net, server, node = env
    engine = RemoteNodeConfigurationEngine(rt, net, node, server.address)
    honored, given_back = [], []

    def worker():
        engine.deliver(Signal.START)
        engine.deliver(Signal.PAUSE)
        return engine.wait_for_clearance(
            engine.generation, lambda s: honored.append(str(s)),
            lambda: given_back.append(rt.now()))

    def stopper():
        rt.sleep(100.0)
        engine.deliver(Signal.STOP)

    rt.spawn(stopper, name="stopper")
    proc = rt.kernel.spawn(worker, name="worker")
    rt.kernel.run_until_idle()
    assert proc.result is False          # clearance denied: stop
    assert honored == ["pause"]          # paused was honored; no resume
    assert given_back == [0.0]           # the carry went back before parking


def test_start_after_stop_ends_the_old_loop_only(rt, env):
    """A Start after a Stop serves a new generation: the loop of the old
    one is over even though the state reads Running again."""
    net, server, node = env
    engine = RemoteNodeConfigurationEngine(rt, net, node, server.address)

    def proc():
        engine.deliver(Signal.START)
        first = engine.generation
        engine.deliver(Signal.PAUSE)
        engine.deliver(Signal.STOP)
        engine.deliver(Signal.START)
        return (engine.ended(first), engine.ended(engine.generation),
                engine.machine.state)

    assert run_in_sim(rt, proc) == (True, False, WorkerState.RUNNING)
