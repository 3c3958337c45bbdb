"""Tests for the simulated network substrate."""

from __future__ import annotations

import pytest

from repro.errors import (
    AddressInUseError,
    ConnectionClosedError,
    ConnectionRefusedError_,
    EntryError,
)
from repro.net import Address, ChaosProfile, LatencyModel, Network
from repro.net.latency import IDEAL
from repro.sim import RandomStreams
from repro.runtime import SimulatedRuntime


@pytest.fixture()
def net(rt):
    return Network(rt, latency=LatencyModel(base_ms=1.0, jitter_ms=0.0, per_kb_ms=0.0))


def run(rt: SimulatedRuntime, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run()
    return proc.result


# -- datagram ---------------------------------------------------------------------


def test_datagram_round_trip(rt, net):
    a = net.bind_datagram(Address("hostA", 161))
    b = net.bind_datagram(Address("hostB", 161))

    def proc():
        a.send_to(Address("hostB", 161), {"op": "get"})
        payload, sender = b.receive(timeout_ms=100.0)
        return payload, sender, rt.now()

    payload, sender, t = run(rt, proc)
    assert payload == {"op": "get"}
    assert sender == Address("hostA", 161)
    assert t == pytest.approx(1.0)


def test_datagram_to_unbound_address_silently_dropped(rt, net):
    a = net.bind_datagram(Address("hostA", 161))

    def proc():
        a.send_to(Address("nowhere", 9), "hello")
        return a.receive(timeout_ms=50.0)

    assert run(rt, proc) is None


def test_datagram_payload_is_isolated_copy(rt, net):
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))
    original = {"values": [1, 2, 3]}

    def proc():
        a.send_to(Address("b", 1), original)
        payload, _ = b.receive(timeout_ms=100.0)
        payload["values"].append(99)
        return payload

    received = run(rt, proc)
    assert received["values"] == [1, 2, 3, 99]
    assert original["values"] == [1, 2, 3]


def test_duplicate_datagram_bind_rejected(rt, net):
    net.bind_datagram(Address("a", 1))
    with pytest.raises(AddressInUseError):
        net.bind_datagram(Address("a", 1))


def test_datagram_close_releases_address(rt, net):
    sock = net.bind_datagram(Address("a", 1))
    sock.close()
    net.bind_datagram(Address("a", 1))  # does not raise


def test_unserializable_payload_rejected(rt, net):
    a = net.bind_datagram(Address("a", 1))

    def proc():
        a.send_to(Address("b", 1), lambda: None)

    with pytest.raises(Exception) as exc_info:
        run(rt, proc)
    assert "serializable" in str(exc_info.value)


def test_datagram_loss(rt):
    lossy = Network(rt, latency=LatencyModel(base_ms=0.1, jitter_ms=0.0))
    lossy.set_chaos(ChaosProfile(datagram_drop=1.0),
                    RandomStreams(0).stream("net"))
    a = lossy.bind_datagram(Address("a", 1))
    b = lossy.bind_datagram(Address("b", 1))

    def proc():
        a.send_to(Address("b", 1), "x")
        return b.receive(timeout_ms=50.0)

    assert run(rt, proc) is None
    assert lossy.stats["dropped"] == 1


# -- multicast --------------------------------------------------------------------


def test_multicast_reaches_all_members(rt, net):
    group = Address("224.0.0.1", 4160)
    members = [net.bind_datagram(Address(f"m{i}", 4160)) for i in range(3)]
    for m in members:
        net.join_multicast(group, m)
    sender = net.bind_datagram(Address("s", 1))

    def proc():
        sender.send_to(group, "announce")
        return [m.receive(timeout_ms=100.0)[0] for m in members]

    assert run(rt, proc) == ["announce", "announce", "announce"]


def test_multicast_walks_members_in_join_order(rt):
    """Each member's copy is scheduled (and draws its jitter) in the order
    the members joined — not in an order set by memory addresses."""
    net = Network(rt, latency=IDEAL)
    group = Address("224.0.0.1", 4160)
    members = [net.bind_datagram(Address(f"m{i}", 4160)) for i in range(6)]
    heard = []
    for m in reversed(members):
        net.join_multicast(group, m)
        m.serve(lambda m=m: heard.append(m.address.host)
                if m.poll() is not None else None)
        m.poll()                        # arm: nothing queued yet
    sender = net.bind_datagram(Address("s", 1))

    def proc():
        sender.send_to(group, "announce")

    run(rt, proc)
    assert heard == [f"m{i}" for i in reversed(range(6))]


def test_multicast_copies_are_lost_like_unicast_datagrams(rt):
    """Every member's copy takes the loss draw a unicast datagram takes,
    in join order, from the same stream."""
    def deliveries(loss):
        runtime = SimulatedRuntime()
        net = Network(runtime, latency=LatencyModel(base_ms=1.0,
                                                    jitter_ms=0.0,
                                                    per_kb_ms=0.0))
        net.set_chaos(ChaosProfile(datagram_drop=loss),
                      RandomStreams(7).stream("net"))
        group = Address("224.0.0.1", 4160)
        members = [net.bind_datagram(Address(f"m{i}", 4160))
                   for i in range(8)]
        for m in members:
            net.join_multicast(group, m)
        sender = net.bind_datagram(Address("s", 1))

        def proc():
            sender.send_to(group, "announce")
            return [m.receive(timeout_ms=10.0) is not None for m in members]

        try:
            return run(runtime, proc), net.stats["dropped"]
        finally:
            runtime.shutdown()

    assert deliveries(1.0) == ([False] * 8, 8)
    draws = RandomStreams(7).stream("net").random(8)
    kept, dropped = deliveries(0.5)
    assert kept == [bool(r >= 0.5) for r in draws]
    assert dropped == sum(r < 0.5 for r in draws)
    assert 0 < dropped < 8


def test_multicast_leave(rt, net):
    group = Address("224.0.0.1", 4160)
    m = net.bind_datagram(Address("m", 4160))
    net.join_multicast(group, m)
    net.leave_multicast(group, m)
    s = net.bind_datagram(Address("s", 1))

    def proc():
        s.send_to(group, "announce")
        return m.receive(timeout_ms=50.0)

    assert run(rt, proc) is None


# -- stream -----------------------------------------------------------------------


def test_stream_connect_and_exchange(rt, net):
    listener = net.listen(Address("server", 5000))

    def proc():
        client = net.connect("client", Address("server", 5000))
        server = listener.accept()
        client.send({"register": "client-1"})
        request = server.receive(timeout_ms=100.0)
        server.send({"assigned_id": 7})
        reply = client.receive(timeout_ms=100.0)
        return request, reply

    request, reply = run(rt, proc)
    assert request == {"register": "client-1"}
    assert reply == {"assigned_id": 7}


def test_connect_refused_without_listener(rt, net):
    def proc():
        with pytest.raises(ConnectionRefusedError_):
            net.connect("client", Address("server", 5000))
        return True

    assert run(rt, proc)


def test_stream_messages_arrive_in_order_despite_jitter(rt):
    jittery = Network(
        rt,
        latency=LatencyModel(base_ms=0.5, jitter_ms=5.0, per_kb_ms=0.0),
        rng=RandomStreams(3).stream("net"),
    )
    listener = jittery.listen(Address("s", 1))

    def proc():
        client = jittery.connect("c", Address("s", 1))
        server = listener.accept()
        for i in range(20):
            client.send(i)
        return [server.receive(timeout_ms=1000.0) for _ in range(20)]

    assert run(rt, proc) == list(range(20))


def test_stream_close_propagates_eof(rt, net):
    listener = net.listen(Address("s", 1))

    def proc():
        client = net.connect("c", Address("s", 1))
        server = listener.accept()
        client.send("last")
        client.close()
        first = server.receive(timeout_ms=100.0)
        with pytest.raises(ConnectionClosedError):
            server.receive(timeout_ms=100.0)
        return first

    assert run(rt, proc) == "last"


def test_send_on_closed_socket_raises(rt, net):
    listener = net.listen(Address("s", 1))

    def proc():
        client = net.connect("c", Address("s", 1))
        listener.accept()
        client.close()
        with pytest.raises(ConnectionClosedError):
            client.send("x")
        return True

    assert run(rt, proc)


def test_listener_accept_waits_for_a_dial(rt, net):
    listener = net.listen(Address("s", 1))

    def dial():
        rt.sleep(25.0)
        net.connect("c", Address("s", 1))

    def proc():
        rt.spawn(dial, name="dialer")
        return listener.accept() is not None, rt.now()

    accepted, t = run(rt, proc)
    assert accepted
    assert t >= 25.0


def test_duplicate_listener_rejected(rt, net):
    net.listen(Address("s", 1))
    with pytest.raises(AddressInUseError):
        net.listen(Address("s", 1))


def test_ephemeral_addresses_unique(rt, net):
    a = net.ephemeral("host")
    b = net.ephemeral("host")
    assert a != b


def test_stats_counters(rt, net):
    a = net.bind_datagram(Address("a", 1))
    net.bind_datagram(Address("b", 1))

    def proc():
        a.send_to(Address("b", 1), "x" * 100)
        rt.sleep(10.0)

    run(rt, proc)
    assert net.stats["datagrams"] == 1
    assert net.stats["datagram_bytes"] > 100


def test_message_size_affects_delay(rt):
    sized = Network(rt, latency=LatencyModel(base_ms=0.0, jitter_ms=0.0, per_kb_ms=1.0))
    a = sized.bind_datagram(Address("a", 1))
    b = sized.bind_datagram(Address("b", 1))

    def proc():
        a.send_to(Address("b", 1), b"z" * 10240)  # ~10 KiB
        b.receive(timeout_ms=1000.0)
        return rt.now()

    t = run(rt, proc)
    assert t == pytest.approx(10.0, rel=0.05)


def test_serialized_payload_goes_out_as_the_same_bytes(rt, net):
    """A reply encoded once costs what sending it costs, and every
    receiver still gets a private copy."""
    from repro.net.network import Serialized

    listener = net.listen(Address("server", 80))
    reply = {"ok": True, "jar": b"\x00" * 5_000}
    frozen = Serialized(reply)

    def proc():
        received, sizes = [], []
        for payload in (reply, frozen, frozen):
            before = net.stats["message_bytes"]
            client = net.connect("client", Address("server", 80))
            listener.accept().send(payload)
            sizes.append(net.stats["message_bytes"] - before)
            received.append(client.receive(timeout_ms=10.0))
        return received, sizes

    received, sizes = run(rt, proc)
    assert sizes[0] == sizes[1] == sizes[2]
    assert received[0] == received[1] == received[2] == reply
    assert received[1] is not received[2]
