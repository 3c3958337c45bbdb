"""The monitoring plane and its neighbour services serve by callback.

SNMP agents, trap receivers, SNMP managers, the network management
module, the workers' rule-base clients, the Jini lookup service and the
code server park no process: each answers in the event that used to
wake one, and each monitor is a timer chain.  These tests pin that down
(process census, zero thread switches per steady-state poll), check
that teardown in the middle of a request ends every callback quietly,
and that the same code still works on real threads.
"""

from __future__ import annotations

import time

import pytest

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.core.codeserver import CodeServer
from repro.core.states import WorkerState
from repro.experiments.calibration import make_options_app, options_cluster
from repro.experiments.harness import run_simulation
from repro.experiments.scalability import run_framework_once
from repro.jini.lookup import LookupService
from repro.net import Address, Network
from repro.node.cluster import Cluster
from repro.node.machine import FAST_PC
from repro.runtime import SimulatedRuntime, ThreadedRuntime
from repro.sim import RandomStreams
from tests.core.toyapp import SumOfSquares

SERVICE_PREFIXES = ("snmp-agent", "snmp-client", "netmgmt-", "code-",
                    "lookup-", "trap-")


def _monitored_framework(runtime, workers=3, loaded=False, **config):
    """A started framework with no job: the start (Jini registration is
    a blocking RPC) runs as a process of its own, which then ends."""
    cluster = options_cluster(runtime, workers=workers,
                              streams=RandomStreams(0))
    if loaded:
        for node in cluster.workers:
            node.cpu.set_background("user", 90.0)
    framework = AdaptiveClusterFramework(
        runtime, cluster, make_options_app(),
        FrameworkConfig(compute_real=False, **config))
    runtime.kernel.spawn(framework.start, name="start")
    return framework


def _spawned_by_a_monitored_run(**config):
    """Names of the processes one monitored option-pricing job spawns."""
    spawned: list[str] = []

    def body(runtime):
        spawn = runtime.kernel.spawn

        def recording_spawn(fn, name="proc"):
            spawned.append(name)
            return spawn(fn, name)

        runtime.kernel.spawn = recording_spawn
        cluster = options_cluster(runtime, workers=3,
                                  streams=RandomStreams(0))
        report, framework = run_framework_once(
            runtime, cluster, make_options_app(),
            FrameworkConfig(compute_real=False, **config))
        assert report.complete
        return framework.netmgmt.stats

    return spawned, run_simulation(body)


@pytest.mark.parametrize("mode", ["poll", "trap"])
def test_monitored_run_spawns_no_service_process(mode):
    spawned, stats = _spawned_by_a_monitored_run(monitoring_mode=mode)
    assert stats["polls" if mode == "poll" else "traps_received"] > 0
    assert spawned, "the worker run loops are still processes"
    assert [name for name in spawned
            if name.startswith(SERVICE_PREFIXES)] == []


def test_steady_state_poll_costs_no_thread_switch():
    """Loaded nodes are never recruited, so after registration the only
    activity is polling: agent, manager and monitor callbacks."""
    runtime = SimulatedRuntime()
    try:
        framework = _monitored_framework(runtime, loaded=True)
        runtime.kernel.run(until=3_000.0)
        kernel, stats = runtime.kernel, framework.netmgmt.stats
        switches, polls = kernel.switches, stats["polls"]
        runtime.kernel.run(until=13_000.0)
        assert stats["polls"] - polls == 3 * 10
        assert kernel.switches == switches
        assert stats["poll_failures"] == 0
        assert framework.registry.value("snmp.requests") == stats["polls"]
        assert framework.registry.value("snmp.retries") == 0
        assert framework.registry.value("snmp.timeouts") == 0
        framework.shutdown()
        runtime.kernel.run_until_idle()     # every timer chain ends
    finally:
        runtime.shutdown()


def test_worker_crash_mid_poll_is_a_quiet_poll_failure():
    runtime = SimulatedRuntime()
    try:
        framework = _monitored_framework(runtime, workers=2,
                                         staleness_ms=2_500.0)
        runtime.kernel.run(until=1_000.0)
        netmgmt = framework.netmgmt
        host = framework.worker_hosts[0]
        poll = netmgmt._poll
        crashed = []

        def poll_then_crash(client):
            poll(client)
            if (not crashed and runtime.now() > 2_000.0
                    and client.record.hostname == host.node.hostname):
                crashed.append(runtime.now())
                runtime.call_later(0.01, host.crash)   # request in flight

        netmgmt._poll = poll_then_crash
        runtime.kernel.run(until=8_000.0)
        assert crashed
        assert netmgmt.stats["poll_failures"] >= 4
        assert netmgmt.stats["stale_stops"] == 1
        assert netmgmt.snmp.stats["timeouts"] == netmgmt.stats["poll_failures"]
        framework.shutdown()
        runtime.kernel.run_until_idle()
    finally:
        runtime.shutdown()


def test_netmgmt_stop_with_polls_in_flight_ends_every_chain():
    runtime = SimulatedRuntime()
    try:
        framework = _monitored_framework(runtime, loaded=True)
        runtime.kernel.run(until=4_000.0)
        netmgmt = framework.netmgmt
        # Stop right after a round of polls went out.
        runtime.kernel.run(until=runtime.now() + 0.05)
        polls = netmgmt.stats["polls"]
        netmgmt.stop()
        runtime.kernel.run(until=runtime.now() + 5_000.0)
        assert netmgmt.stats["polls"] == polls
        framework.shutdown()
        runtime.kernel.run_until_idle()
    finally:
        runtime.shutdown()


def _dial_and_hang_up(runtime, network, address, request):
    """A client that sends one request and hangs up before the reply."""
    conn = network.connect("client", address)
    conn.send(request)
    conn.close()


def test_lookup_connection_dropped_mid_request(rt):
    network = Network(rt)
    lookup = LookupService(rt, network, Address("registrar", 4160))
    lookup.start()
    rt.call_later(1.0, lambda: _dial_and_hang_up(
        rt, network, lookup.address, {"op": "lookup", "args": {}}))
    rt.call_later(2.0, lambda: _dial_and_hang_up(
        rt, network, lookup.address, {"op": "bogus"}))
    rt.kernel.run_until_idle()
    lookup.stop()
    rt.kernel.run_until_idle()


def test_code_connection_dropped_mid_request(rt):
    network = Network(rt)
    server = CodeServer(rt, network, "master")
    server.publish("toy", make_options_app().classload_profile())
    server.start()
    rt.call_later(1.0, lambda: _dial_and_hang_up(
        rt, network, server.address, {"app_id": "toy"}))
    rt.call_later(2.0, lambda: network.connect("client", server.address).close())
    rt.kernel.run_until_idle()
    assert server.stats["downloads"] == 1
    server.stop()
    rt.kernel.run_until_idle()


def test_threaded_runtime_monitoring_delivers_start_and_stop():
    runtime = ThreadedRuntime()
    cluster = Cluster(runtime)
    cluster.add_workers(2, FAST_PC)
    framework = AdaptiveClusterFramework(
        runtime, cluster, SumOfSquares(n=8),
        FrameworkConfig(poll_interval_ms=50.0, worker_poll_ms=20.0))
    try:
        framework.start()
        report = framework.run()
        assert report.complete
        assert set(report.results_by_worker) <= {n.hostname
                                                 for n in cluster.workers}
        node, host = cluster.workers[0], framework.worker_hosts[0]
        node.cpu.set_background("user", 95.0)
        deadline = time.monotonic() + 10.0
        while host.state != WorkerState.STOPPED and time.monotonic() < deadline:
            time.sleep(0.02)
        assert host.state == WorkerState.STOPPED
    finally:
        framework.shutdown()
        runtime.shutdown()
