"""Network partition injection."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionRefusedError_
from repro.net import Address, LatencyModel, Network
from repro.snmp import HOST_RESOURCES, Mib, SnmpAgent, SnmpManager
from repro.errors import TimeoutError_
from tests.conftest import run_in_sim


@pytest.fixture()
def net(rt):
    return Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0))


def test_datagrams_to_isolated_host_vanish(rt, net):
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        net.isolate("b")
        a.send_to(Address("b", 1), "lost")
        first = b.receive(timeout_ms=20.0)
        net.heal("b")
        a.send_to(Address("b", 1), "delivered")
        second = b.receive(timeout_ms=20.0)
        return first, second[0]

    assert run_in_sim(rt, proc) == (None, "delivered")


def test_isolated_host_cannot_send_either(rt, net):
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        net.isolate("a")
        a.send_to(Address("b", 1), "x")
        return b.receive(timeout_ms=20.0)

    assert run_in_sim(rt, proc) is None
    assert net.stats["dropped"] == 1


def test_connect_to_partitioned_host_refused(rt, net):
    net.listen(Address("server", 1))

    def proc():
        net.isolate("server")
        with pytest.raises(ConnectionRefusedError_, match="partitioned"):
            net.connect("client", Address("server", 1))
        return True

    assert run_in_sim(rt, proc)


def test_established_stream_goes_silent_then_recovers(rt, net):
    listener = net.listen(Address("s", 1))

    def proc():
        client = net.connect("c", Address("s", 1))
        server = listener.accept()
        client.send("before")
        assert server.receive(timeout_ms=50.0) == "before"
        net.isolate("c")
        client.send("during")            # vanishes on the wire
        lost = server.receive(timeout_ms=50.0)
        net.heal("c")
        client.send("after")
        recovered = server.receive(timeout_ms=50.0)
        return lost, recovered

    assert run_in_sim(rt, proc) == (None, "after")


def test_snmp_monitoring_sees_partition_as_timeouts(rt, net):
    """The monitoring agent's view of a partitioned worker: silence."""
    mib = Mib()
    mib.register(HOST_RESOURCES.HR_PROCESSOR_LOAD, 10)
    SnmpAgent(rt, net, "w", mib).start()
    manager = SnmpManager(rt, net, "mgr", timeout_ms=30.0, retries=1)
    outcomes = []

    def poll():
        manager.fetch("w", HOST_RESOURCES.HR_PROCESSOR_LOAD,
                      lambda value, error: outcomes.append((value, error)))
        rt.kernel.run_until_idle()
        return outcomes.pop()

    before = poll()
    net.isolate("w")
    _, lost = poll()
    net.heal("w")
    after = poll()
    assert (before, after) == ((10, None), (10, None))
    assert isinstance(lost, TimeoutError_)


def test_multicast_respects_partitions(rt, net):
    group = Address("224.0.0.1", 4160)
    members = [net.bind_datagram(Address(f"m{i}", 4160)) for i in range(2)]
    for m in members:
        net.join_multicast(group, m)
    sender = net.bind_datagram(Address("s", 1))

    def proc():
        net.isolate("m0")
        sender.send_to(group, "announce")
        return members[0].receive(timeout_ms=20.0), members[1].receive(timeout_ms=20.0)

    lost, received = run_in_sim(rt, proc)
    assert lost is None
    assert received[0] == "announce"


# -- directed partitions, pauses, gray failures (the nemesis kit) -----------


def test_directed_partition_is_asymmetric(rt, net):
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        net.partition("a", "b")
        a.send_to(Address("b", 1), "gone")
        lost = b.receive(timeout_ms=20.0)
        b.send_to(Address("a", 1), "back")        # reverse path still open
        reply = a.receive(timeout_ms=20.0)
        net.heal_partition("a", "b")
        a.send_to(Address("b", 1), "again")
        healed = b.receive(timeout_ms=20.0)
        return lost, reply[0], healed[0]

    assert run_in_sim(rt, proc) == (None, "back", "again")
    # Partition drops are tallied apart from lossy-link chaos drops.
    assert net.stats["partition_dropped"] == 1
    assert net.stats["dropped"] == 1


def test_wildcard_egress_cut_spares_ingress_and_loopback(rt, net):
    a = net.bind_datagram(Address("a", 1))
    a2 = net.bind_datagram(Address("a", 2))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        net.partition("a", "*")                   # a's NIC stops sending
        a.send_to(Address("b", 1), "x")
        lost = b.receive(timeout_ms=20.0)
        a.send_to(Address("a", 2), "self")        # loopback is exempt
        local = a2.receive(timeout_ms=20.0)
        b.send_to(Address("a", 1), "in")          # ingress still flows
        inbound = a.receive(timeout_ms=20.0)
        return lost, local[0], inbound[0]

    assert run_in_sim(rt, proc) == (None, "self", "in")
    assert net.is_partitioned("a", "b")
    assert not net.is_partitioned("b", "a")
    assert not net.is_partitioned("a", "a")


def test_partition_pair_cuts_both_directions(rt, net):
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))
    c = net.bind_datagram(Address("c", 1))

    def proc():
        net.partition_pair("a", "b")
        a.send_to(Address("b", 1), "x")
        b.send_to(Address("a", 1), "y")
        first = a.receive(timeout_ms=20.0)
        second = b.receive(timeout_ms=20.0)
        a.send_to(Address("c", 1), "bystander")   # rest of the segment fine
        third = c.receive(timeout_ms=20.0)
        net.heal_all_partitions()
        a.send_to(Address("b", 1), "ok")
        fourth = b.receive(timeout_ms=20.0)
        return first, second, third[0], fourth[0]

    assert run_in_sim(rt, proc) == (None, None, "bystander", "ok")


def test_partitioned_stream_send_counts_partition_drop(rt, net):
    listener = net.listen(Address("server", 1))

    def proc():
        conn = net.connect("client", Address("server", 1))
        server = listener.accept()
        net.partition("client", "server")
        conn.send("lost")
        lost = server.receive(timeout_ms=20.0)
        return lost

    assert run_in_sim(rt, proc) is None
    assert net.stats["partition_dropped"] == 1


def test_pause_holds_traffic_and_resume_delivers_in_order(rt, net):
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        net.pause("b")
        a.send_to(Address("b", 1), "one")
        a.send_to(Address("b", 1), "two")
        held = b.receive(timeout_ms=50.0)         # stalled, nothing arrives
        net.resume("b")
        first = b.receive(timeout_ms=50.0)
        second = b.receive(timeout_ms=50.0)
        return held, first[0], second[0]

    # Unlike a partition, a pause loses nothing: the mail arrives late.
    assert run_in_sim(rt, proc) == (None, "one", "two")
    assert net.stats["dropped"] == 0


def test_paused_host_cannot_send_either(rt, net):
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        net.pause("a")
        a.send_to(Address("b", 1), "stalled")
        held = b.receive(timeout_ms=50.0)
        net.resume("a")
        late = b.receive(timeout_ms=50.0)
        return held, late[0]

    assert run_in_sim(rt, proc) == (None, "stalled")


def test_gray_slow_multiplies_latency(rt, net):
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        net.slow("b", 8.0)
        start = rt.now()
        a.send_to(Address("b", 1), "x")
        assert b.receive(timeout_ms=100.0) is not None
        slow_ms = rt.now() - start
        net.heal_slow("b")
        start = rt.now()
        a.send_to(Address("b", 1), "y")
        assert b.receive(timeout_ms=100.0) is not None
        return slow_ms, rt.now() - start

    slow_ms, fast_ms = run_in_sim(rt, proc)
    assert slow_ms == pytest.approx(fast_ms * 8.0)
