"""FaultPlan generation/determinism and FaultInjector scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import Metrics
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.net import LatencyModel, Network
from repro.net.network import ChaosProfile


def test_generated_plans_are_seed_deterministic():
    hosts = ["w1", "w2", "w3"]

    def gen(seed):
        return FaultPlan.generate(np.random.default_rng(seed), hosts,
                                  crashes=2, flaps=2, server_restarts=1,
                                  chaos_windows=1)

    assert gen(42).events == gen(42).events
    assert gen(42).events != gen(43).events


def test_generated_plan_shape_and_ordering():
    plan = FaultPlan.generate(np.random.default_rng(0), ["w1", "w2"],
                              horizon_ms=10_000.0, crashes=1, flaps=2,
                              server_restarts=1, chaos_windows=1)
    assert len(plan) == 5
    times = [e.at_ms for e in plan]
    assert times == sorted(times)
    assert all(1_000.0 <= t <= 9_000.0 for t in times)  # lead-in / drain
    kinds = [e.kind for e in plan]
    assert kinds.count(FaultKind.LINK_FLAP) == 2
    for event in plan:
        if event.kind in (FaultKind.WORKER_CRASH, FaultKind.LINK_FLAP):
            assert event.target in ("w1", "w2")
        if event.kind == FaultKind.CHAOS_WINDOW:
            assert event.profile is not None


def test_plan_add_keeps_events_sorted():
    plan = FaultPlan([FaultEvent(500.0, FaultKind.SERVER_RESTART,
                                 duration_ms=100.0)])
    plan.add(FaultEvent(100.0, FaultKind.WORKER_CRASH, target="w1"))
    assert [e.at_ms for e in plan] == [100.0, 500.0]
    assert "worker-crash" in plan.events[0].describe()


class _CrashableHost:
    def __init__(self):
        self.crashed = False

    def crash(self):
        self.crashed = True


def test_injector_applies_and_heals_on_schedule(rt):
    net = Network(rt, latency=LatencyModel(base_ms=1.0, jitter_ms=0.0,
                                           per_kb_ms=0.0))
    metrics = Metrics(rt)
    host = _CrashableHost()
    plan = FaultPlan([
        FaultEvent(100.0, FaultKind.WORKER_CRASH, target="w1"),
        FaultEvent(200.0, FaultKind.LINK_FLAP, target="w2",
                   duration_ms=300.0),
        FaultEvent(250.0, FaultKind.CHAOS_WINDOW, duration_ms=100.0,
                   profile=ChaosProfile(datagram_drop=1.0)),
    ])
    injector = FaultInjector(rt, net, plan, metrics,
                             worker_hosts={"w1": host},
                             rng=np.random.default_rng(0))
    observed = []

    def observer():
        rt.sleep(150.0)
        observed.append(("crashed", host.crashed))
        rt.sleep(150.0)  # t=300: flap + chaos window active
        observed.append(("isolated", net.is_isolated("w2")))
        observed.append(("chaos", net._chaos is not None))
        rt.sleep(300.0)  # t=600: both healed
        observed.append(("healed", not net.is_isolated("w2")))
        observed.append(("chaos-off", net._chaos is None))

    injector.arm()
    rt.kernel.spawn(observer, name="observer")
    rt.kernel.run_until_idle()

    assert dict(observed) == {"crashed": True, "isolated": True,
                              "chaos": True, "healed": True,
                              "chaos-off": True}
    assert injector.injected == 3
    assert injector.healed == 2
    names = [n for _, n, _ in metrics.events]
    assert names.count("fault-injected") == 3
    assert names.count("fault-healed") == 2


def test_disarm_suppresses_unfired_events(rt):
    net = Network(rt, latency=LatencyModel(base_ms=1.0, jitter_ms=0.0,
                                           per_kb_ms=0.0))
    host = _CrashableHost()
    plan = FaultPlan([FaultEvent(500.0, FaultKind.WORKER_CRASH, target="w1")])
    injector = FaultInjector(rt, net, plan, Metrics(rt),
                             worker_hosts={"w1": host})

    def disarmer():
        rt.sleep(100.0)
        injector.disarm()

    injector.arm()
    rt.kernel.spawn(disarmer, name="disarmer")
    rt.kernel.run_until_idle()
    assert not host.crashed
    assert injector.injected == 0


# -- nemesis fault kinds: partition / pause / gray-slow ---------------------


def _net(rt):
    return Network(rt, latency=LatencyModel(base_ms=1.0, jitter_ms=0.0,
                                            per_kb_ms=0.0))


def test_nemesis_faults_inject_and_heal_on_schedule(rt):
    net = _net(rt)
    plan = FaultPlan([
        FaultEvent(100.0, FaultKind.PARTITION, target="space",
                   duration_ms=300.0),
        FaultEvent(150.0, FaultKind.PAUSE, target="shard:1",
                   duration_ms=300.0),
        FaultEvent(200.0, FaultKind.GRAY_SLOW, target="w9",
                   duration_ms=300.0, factor=8.0),
    ])
    injector = FaultInjector(rt, net, plan, Metrics(rt),
                             space_hosts=["h0", "h1"])
    observed = {}

    def observer():
        rt.sleep(250.0)  # all three active
        observed["egress-cut"] = net.is_partitioned("h0", "elsewhere")
        observed["ingress-open"] = not net.is_partitioned("elsewhere", "h0")
        observed["paused"] = net.is_paused("h1")
        observed["slowed"] = net._slow_factor("w9", "x")
        rt.sleep(350.0)  # all healed
        observed["healed"] = (not net.is_partitioned("h0", "elsewhere")
                              and not net.is_paused("h1")
                              and net._slow_factor("w9", "x") == 1.0)

    injector.arm()
    rt.kernel.spawn(observer, name="observer")
    rt.kernel.run_until_idle()

    assert observed == {"egress-cut": True, "ingress-open": True,
                        "paused": True, "slowed": 8.0, "healed": True}
    assert injector.injected == 3
    assert injector.healed == 3


def test_resolve_target_symbolic_names(rt):
    injector = FaultInjector(rt, _net(rt), FaultPlan(), Metrics(rt),
                             space_hosts=["h0", "h1", "h2"])
    assert injector.resolve_target("space") == "h0"
    assert injector.resolve_target("shard:2") == "h2"
    assert injector.resolve_target("worker7") == "worker7"
    assert injector.resolve_target(None) is None
    for missing in ("shard:3", "shard:7"):  # no wrap onto another shard
        with pytest.raises(ValueError, match="out of range"):
            injector.resolve_target(missing)


def test_disarm_heals_outstanding_directed_partitions(rt):
    net = _net(rt)
    plan = FaultPlan([
        FaultEvent(100.0, FaultKind.PARTITION, target="space",
                   duration_ms=60_000.0),   # would outlive the run
        FaultEvent(100.0, FaultKind.PAUSE, target="shard:1",
                   duration_ms=60_000.0),
        FaultEvent(100.0, FaultKind.GRAY_SLOW, target="w9",
                   duration_ms=60_000.0, factor=4.0),
    ])
    injector = FaultInjector(rt, net, plan, Metrics(rt),
                             space_hosts=["h0", "h1"])

    def proc():
        rt.sleep(200.0)
        assert net.is_partitioned("h0", "elsewhere")
        assert net.is_paused("h1")
        injector.disarm()
        assert not net.is_partitioned("h0", "elsewhere")
        assert not net.is_paused("h1")
        assert net._slow_factor("w9", "x") == 1.0

    injector.arm()
    rt.kernel.spawn(proc, name="proc")
    rt.kernel.run_until_idle()
    assert injector.injected == 3
