"""Discovery / join / lookup protocol tests."""

from __future__ import annotations

import pytest

from repro.net import Address, LatencyModel, Network
from repro.jini import DiscoveryClient, JoinManager, LookupService, ServiceItem
from repro.jini.join import LookupClient

REGISTRAR = Address("registrar", 4162)


@pytest.fixture()
def env(rt):
    net = Network(rt, latency=LatencyModel(base_ms=0.2, jitter_ms=0.0, per_kb_ms=0.0))
    lookup = LookupService(rt, net, REGISTRAR)
    lookup.start()
    return net, lookup


def run(rt, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_discovery_finds_registrar(rt, env):
    net, _ = env

    def proc():
        client = DiscoveryClient(rt, net, "workerhost")
        return client.discover()

    assert run(rt, proc) == [REGISTRAR]


def test_discovery_finds_multiple_registrars(rt, env):
    net, _ = env
    second = LookupService(rt, net, Address("registrar2", 4162))
    second.start()

    def proc():
        client = DiscoveryClient(rt, net, "workerhost")
        return sorted(client.discover(), key=str)

    found = run(rt, proc)
    assert len(found) == 2


def test_discovery_times_out_quietly_with_no_registrar(rt):
    net = Network(rt)

    def proc():
        client = DiscoveryClient(rt, net, "h")
        return client.discover()

    assert run(rt, proc) == []


def test_register_and_lookup_by_attributes(rt, env):
    net, lookup = env

    def proc():
        client = LookupClient(net, "master", REGISTRAR)
        client.register(
            ServiceItem("space-1", Address("master", 4155),
                        {"type": "JavaSpaces", "name": "compute"})
        )
        client.register(
            ServiceItem("printer-1", Address("hall", 9100), {"type": "printer"})
        )
        spaces = client.lookup({"type": "JavaSpaces"})
        printers = client.lookup({"type": "printer"})
        everything = client.lookup({})
        nothing = client.lookup({"type": "JavaSpaces", "name": "other"})
        client.close()
        return (
            [s.service_id for s in spaces],
            [s.service_id for s in printers],
            len(everything),
            nothing,
        )

    spaces, printers, total, nothing = run(rt, proc)
    assert spaces == ["space-1"]
    assert printers == ["printer-1"]
    assert total == 2
    assert nothing == []


def test_lookup_returns_usable_service_address(rt, env):
    net, _ = env

    def proc():
        client = LookupClient(net, "master", REGISTRAR)
        client.register(ServiceItem("svc", Address("master", 4155), {"type": "JavaSpaces"}))
        item = client.lookup({"type": "JavaSpaces"})[0]
        client.close()
        return item.service

    assert run(rt, proc) == Address("master", 4155)


def test_registration_lease_expires(rt, env):
    net, _ = env

    def proc():
        client = LookupClient(net, "m", REGISTRAR)
        client.register(ServiceItem("ephemeral", None, {"t": "x"}), lease_ms=100.0)
        before = len(client.lookup({"t": "x"}))
        rt.sleep(200.0)
        after = len(client.lookup({"t": "x"}))
        client.close()
        return before, after

    assert run(rt, proc) == (1, 0)


def test_cancel_removes_registration(rt, env):
    net, _ = env

    def proc():
        client = LookupClient(net, "m", REGISTRAR)
        reply = client.register(ServiceItem("svc", None, {"t": "x"}))
        client.cancel(reply["registration_id"])
        remaining = client.lookup({})
        client.close()
        return remaining

    assert run(rt, proc) == []


def test_join_manager_keeps_registration_alive(rt, env):
    """The registration stays, under a lease that never expires, until
    stop cancels it."""
    net, _ = env

    def proc():
        manager = JoinManager(
            net, "master", REGISTRAR,
            ServiceItem("space", None, {"type": "JavaSpaces"}),
        )
        manager.start()
        rt.sleep(450.0)
        client = LookupClient(net, "probe", REGISTRAR)
        alive = len(client.lookup({"type": "JavaSpaces"}))
        manager.stop()
        rt.sleep(150.0)
        gone = len(client.lookup({"type": "JavaSpaces"}))
        client.close()
        return alive, gone

    assert run(rt, proc) == (1, 0)


def test_full_stack_discover_then_lookup_then_connect(rt, env):
    """End-to-end: discover registrar → find space service → talk to it."""
    net, _ = env
    from repro.tuplespace import JavaSpace, SpaceProxy, SpaceServer
    from tests.tuplespace.entries import TaskEntry

    space_address = Address("master", 4155)
    space = JavaSpace(rt)
    SpaceServer(rt, space, net, space_address).start()

    def proc():
        # Master joins the federation.
        JoinManager(
            net, "master", REGISTRAR,
            ServiceItem("space", space_address, {"type": "JavaSpaces"}),
        ).start()
        # Worker discovers and uses it.
        registrars = DiscoveryClient(rt, net, "worker").discover()
        client = LookupClient(net, "worker", registrars[0])
        item = client.lookup({"type": "JavaSpaces"})[0]
        client.close()
        proxy = SpaceProxy(net, "worker", item.service)
        proxy.write(TaskEntry("e2e", 1, "hello"))
        entry = proxy.take(TaskEntry(), timeout_ms=100.0)
        proxy.close()
        return entry.payload

    assert run(rt, proc) == "hello"
