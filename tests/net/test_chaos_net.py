"""Probabilistic message-level faults inside the Network (ChaosProfile)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConnectionClosedError
from repro.net import Address, LatencyModel, Network
from repro.net.network import ChaosProfile


@pytest.fixture()
def net(rt):
    return Network(rt, latency=LatencyModel(base_ms=1.0, jitter_ms=0.0,
                                            per_kb_ms=0.0))


def run(rt, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_datagram_drop_probability_one_loses_everything(rt, net):
    a = net.bind_datagram(Address("hostA", 161))
    b = net.bind_datagram(Address("hostB", 161))
    net.set_chaos(ChaosProfile(datagram_drop=1.0),
                  rng=np.random.default_rng(0))

    def proc():
        for _ in range(5):
            a.send_to(Address("hostB", 161), {"op": "get"})
        return b.receive(timeout_ms=100.0)

    assert run(rt, proc) is None
    assert net.stats["dropped"] >= 5


def test_datagram_extra_delay_slows_delivery(rt, net):
    a = net.bind_datagram(Address("hostA", 161))
    b = net.bind_datagram(Address("hostB", 161))
    net.set_chaos(
        ChaosProfile(extra_delay_ms=50.0, delay_probability=1.0),
        rng=np.random.default_rng(1),
    )

    def proc():
        a.send_to(Address("hostB", 161), "ping")
        message = b.receive(timeout_ms=1_000.0)
        return message, rt.now()

    message, arrival = run(rt, proc)
    assert message is not None
    assert arrival > 1.0  # base latency alone would deliver at t=1ms


def test_stream_drop_resets_the_connection(rt, net):
    listener = net.listen(Address("server", 9))
    net.set_chaos(ChaosProfile(stream_drop=1.0),
                  rng=np.random.default_rng(2))

    def proc():
        client = net.connect("client", Address("server", 9))
        server_side = listener.accept()
        net.clear_chaos()
        net.set_chaos(ChaosProfile(stream_drop=1.0),
                      rng=np.random.default_rng(2))
        client.send({"op": "ping"})
        # The dropped message becomes a TCP-style reset: both ends die.
        with pytest.raises(ConnectionClosedError):
            while True:
                client.receive(timeout_ms=50.0)
        return server_side

    run(rt, proc)
    assert net.stats["resets"] >= 1


def test_clear_chaos_restores_normal_delivery(rt, net):
    a = net.bind_datagram(Address("hostA", 161))
    b = net.bind_datagram(Address("hostB", 161))
    net.set_chaos(ChaosProfile(datagram_drop=1.0),
                  rng=np.random.default_rng(3))
    net.clear_chaos()

    def proc():
        a.send_to(Address("hostB", 161), "hello")
        return b.receive(timeout_ms=100.0)

    payload, sender = run(rt, proc)
    assert payload == "hello"


def test_chaos_drop_pattern_is_seed_deterministic(rt):
    def drops_for(seed):
        net = Network(rt, latency=LatencyModel(base_ms=1.0, jitter_ms=0.0,
                                               per_kb_ms=0.0))
        net.set_chaos(ChaosProfile(datagram_drop=0.5),
                      rng=np.random.default_rng(seed))
        return [net._chaos_drops(0.5) for _ in range(64)]

    assert drops_for(7) == drops_for(7)
    assert drops_for(7) != drops_for(8)
