"""Egress bandwidth contention model."""

from __future__ import annotations

import pytest

from repro.net import Address, LatencyModel, Network
from tests.conftest import run_in_sim

#: 1 KB/ms ≈ 8 Mb/s link, zero propagation latency, for easy arithmetic.
LINK = LatencyModel(base_ms=0.0, jitter_ms=0.0, per_kb_ms=0.0,
                    egress_kb_per_ms=1.0)


def test_single_message_pays_transmission_time(rt):
    net = Network(rt, latency=LINK)
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        a.send_to(Address("b", 1), b"x" * 10240)  # ~10 KB
        b.receive(timeout_ms=1000.0)
        return rt.now()

    # 10 KB at 1 KB/ms ≈ 10 ms (plus pickle overhead bytes).
    assert run_in_sim(rt, proc) == pytest.approx(10.0, rel=0.05)


def test_concurrent_sends_from_one_host_serialize(rt):
    net = Network(rt, latency=LINK)
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        for _ in range(3):
            a.send_to(Address("b", 1), b"x" * 10240)
        arrivals = []
        for _ in range(3):
            b.receive(timeout_ms=1000.0)
            arrivals.append(rt.now())
        return arrivals

    arrivals = run_in_sim(rt, proc)
    # Back-to-back transmissions: ~10, ~20, ~30 ms.
    assert arrivals[0] == pytest.approx(10.0, rel=0.1)
    assert arrivals[1] == pytest.approx(20.0, rel=0.1)
    assert arrivals[2] == pytest.approx(30.0, rel=0.1)


def test_different_hosts_do_not_contend(rt):
    net = Network(rt, latency=LINK)
    a = net.bind_datagram(Address("a", 1))
    c = net.bind_datagram(Address("c", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        a.send_to(Address("b", 1), b"x" * 10240)
        c.send_to(Address("b", 1), b"x" * 10240)
        b.receive(timeout_ms=1000.0)
        first = rt.now()
        b.receive(timeout_ms=1000.0)
        return first, rt.now()

    first, second = run_in_sim(rt, proc)
    # Independent egress links: both arrive ≈ together.
    assert second - first < 1.0


def test_bandwidth_disabled_by_default(rt):
    net = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0,
                                           per_kb_ms=0.0))
    a = net.bind_datagram(Address("a", 1))
    b = net.bind_datagram(Address("b", 1))

    def proc():
        a.send_to(Address("b", 1), b"x" * 102400)  # 100 KB, "free"
        b.receive(timeout_ms=100.0)
        return rt.now()

    assert run_in_sim(rt, proc) == pytest.approx(0.5)


def test_streams_share_the_host_egress(rt):
    net = Network(rt, latency=LINK)
    listener = net.listen(Address("s", 1))

    def proc():
        conn = net.connect("master", Address("s", 1))
        server = listener.accept()
        conn.send(b"x" * 10240)
        conn.send(b"x" * 10240)
        server.receive(timeout_ms=1000.0)
        t1 = rt.now()
        server.receive(timeout_ms=1000.0)
        return t1, rt.now()

    t1, t2 = run_in_sim(rt, proc)
    assert t2 - t1 == pytest.approx(10.0, rel=0.1)


def test_master_egress_becomes_bottleneck_for_fanout(rt):
    """The deployment insight this model captures: a master pushing large
    task payloads to N workers serializes on its own uplink."""
    net = Network(rt, latency=LINK)
    master = net.bind_datagram(Address("master", 1))
    workers = [net.bind_datagram(Address(f"w{i}", 1)) for i in range(4)]

    def proc():
        for i in range(4):
            master.send_to(Address(f"w{i}", 1), b"x" * 10240)
        last = 0.0
        for worker in workers:
            worker.receive(timeout_ms=1000.0)
            last = max(last, rt.now())
        return last

    # 4 × 10 KB through one 1 KB/ms link ≈ 40 ms, not 10.
    assert run_in_sim(rt, proc) == pytest.approx(40.0, rel=0.1)
