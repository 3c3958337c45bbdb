"""Node MIB wiring, load generators, cluster factories."""

from __future__ import annotations

import pytest

from repro.net import Network
from repro.node import (
    Cluster,
    LoadScript,
    LoadSimulator1,
    LoadSimulator2,
    Node,
    testbed_large,
    testbed_small,
)
from repro.node.machine import FAST_PC, SLOW_PC
from repro.sim import RandomStreams
from repro.snmp import HOST_RESOURCES, SnmpManager
from tests.conftest import run_in_sim


@pytest.fixture()
def node(rt):
    net = Network(rt)
    return Node(rt, net, "w1", FAST_PC)


def test_mib_reports_static_facts(rt, node):
    mib = node.build_mib()
    assert "800" in mib.get(HOST_RESOURCES.SYS_DESCR)
    assert mib.get(HOST_RESOURCES.SYS_NAME) == "w1"
    assert mib.get(HOST_RESOURCES.HR_MEMORY_SIZE_KB) == 256 * 1024
    assert mib.get(HOST_RESOURCES.HR_PROCESSOR_LOAD) == 0


def test_mib_processor_load_is_live(rt, node):
    mib = node.build_mib()

    def proc():
        node.cpu.set_background("user", 60.0)
        rt.sleep(1000.0)
        return mib.get(HOST_RESOURCES.HR_PROCESSOR_LOAD), mib.get(HOST_RESOURCES.TOTAL_LOAD)

    avg, instant = run_in_sim(rt, proc)
    assert avg == 60
    assert instant == 60


def test_snmp_agent_end_to_end_on_node(rt, node):
    node.start_agent()
    manager = SnmpManager(rt, node.network, "mgr")

    outcomes = []

    def proc():
        node.cpu.set_background("user", 45.0)
        rt.sleep(1000.0)
        manager.fetch("w1", HOST_RESOURCES.EXTERNAL_LOAD,
                      lambda value, error: outcomes.append((value, error)))

    run_in_sim(rt, proc)
    assert outcomes == [(45, None)]


def test_load_simulator2_saturates(rt, node):
    sim2 = LoadSimulator2(rt, node)

    def proc():
        sim2.start()
        level = node.cpu.background_percent()
        sim2.stop()
        return level, node.cpu.background_percent()

    assert run_in_sim(rt, proc) == (100.0, 0.0)


def test_load_simulator1_stays_in_band(rt, node):
    sim1 = LoadSimulator1(rt, node, rng=RandomStreams(5).stream("ls1"))
    levels = []

    def proc():
        sim1.start()
        for _ in range(20):
            rt.sleep(100.0)
            levels.append(node.cpu.background_percent())
        sim1.stop()
        rt.sleep(500.0)
        return node.cpu.background_percent()

    final = run_in_sim(rt, proc)
    assert final == 0.0
    assert levels
    assert all(30.0 <= level <= 50.0 for level in levels)


def test_load_simulator1_is_reproducible(rt):
    def trace(seed_rt):
        net = Network(seed_rt)
        node = Node(seed_rt, net, "w", FAST_PC)
        sim = LoadSimulator1(seed_rt, node, rng=RandomStreams(9).stream("ls1"))
        series = []

        def proc():
            sim.start()
            for _ in range(10):
                seed_rt.sleep(100.0)
                series.append(node.cpu.background_percent())
            sim.stop()

        seed_rt.kernel.spawn(proc, name="p")
        seed_rt.kernel.run()
        return series

    from repro.runtime import SimulatedRuntime

    rt1, rt2 = SimulatedRuntime(), SimulatedRuntime()
    try:
        assert trace(rt1) == trace(rt2)
    finally:
        rt1.shutdown()
        rt2.shutdown()


def test_load_script_executes_in_order(rt, node):
    events = []

    def proc():
        script = LoadScript(
            rt,
            [
                (100.0, lambda: events.append(("a", rt.now()))),
                (50.0, lambda: events.append(("b", rt.now()))),
                (200.0, lambda: events.append(("c", rt.now()))),
            ],
        )
        script.start()
        rt.sleep(300.0)
        return script.done

    assert run_in_sim(rt, proc) is True
    assert events == [("b", 50.0), ("a", 100.0), ("c", 200.0)]


def test_testbed_small_shape(rt):
    cluster = testbed_small(rt)
    assert len(cluster.workers) == 5
    assert all(w.spec == FAST_PC for w in cluster.workers)
    assert cluster.master.spec == FAST_PC


def test_testbed_large_shape(rt):
    cluster = testbed_large(rt)
    assert len(cluster.workers) == 13
    assert all(w.spec == SLOW_PC for w in cluster.workers)
    assert cluster.master.spec == FAST_PC  # fast master per the paper


def test_cluster_hostnames_unique_and_lookup(rt):
    cluster = testbed_small(rt, workers=4)
    names = [w.hostname for w in cluster.workers]
    assert len(set(names)) == 4
    assert [node.hostname for node in cluster.nodes[-4:]] == names


def test_cluster_nodes_share_network(rt):
    cluster = testbed_small(rt, workers=2)
    assert cluster.master.network is cluster.workers[0].network
