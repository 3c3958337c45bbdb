"""Code server + remote node configuration engine."""

from __future__ import annotations

import pytest

from repro.core.application import ClassLoadProfile
from repro.core.codeserver import CodeServer, download_bundle
from repro.core.config_engine import RemoteNodeConfigurationEngine
from repro.core.signals import Signal
from repro.errors import FrameworkError
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
    net, server, node = env
    engine = RemoteNodeConfigurationEngine(rt, net, node, server.address)

    def proc():
        engine.deliver(Signal.PAUSE)
        paused = engine.paused
        engine.deliver(Signal.RESUME)
        resumed = not engine.paused
        engine.deliver(Signal.STOP)
        return paused, resumed, engine.stop_requested

    assert run_in_sim(rt, proc) == (True, True, True)


def test_stop_wakes_paused_worker(rt, env):
    net, server, node = env
    engine = RemoteNodeConfigurationEngine(rt, net, node, server.address)
    honored = []

    def worker():
        engine.deliver(Signal.PAUSE)
        return engine.wait_for_clearance(lambda s: honored.append(str(s)))

    def stopper():
        rt.sleep(100.0)
        engine.deliver(Signal.STOP)

    rt.spawn(stopper, name="stopper")
    proc = rt.kernel.spawn(worker, name="worker")
    rt.kernel.run_until_idle()
    assert proc.result is False          # clearance denied: stop
    assert honored == ["pause"]          # paused was honored; no resume


def test_reset_for_start_clears_state(rt, env):
    net, server, node = env
    engine = RemoteNodeConfigurationEngine(rt, net, node, server.address)

    def proc():
        engine.deliver(Signal.STOP)
        engine.reset_for_start()
        return engine.stop_requested, engine.paused

    assert run_in_sim(rt, proc) == (False, False)
