"""SNMP traps: codec, receiver, load-band emitter."""

from __future__ import annotations

import pytest

from repro.core.signals import ThresholdPolicy
from repro.net import Address, Network
from repro.node.machine import FAST_PC, Node
from repro.snmp import HOST_RESOURCES, Oid
from repro.snmp.pdu import TrapV2, decode_message, encode_message
from repro.snmp.trap import TRAP_PORT, LoadBandTrapEmitter, TrapReceiver


def test_trap_pdu_round_trip():
    trap = TrapV2(
        request_id=5,
        varbinds=[(HOST_RESOURCES.SYS_NAME, "w1"),
                  (HOST_RESOURCES.EXTERNAL_LOAD, 42)],
        community="cluster",
    )
    out = decode_message(encode_message(trap))
    assert isinstance(out, TrapV2)
    assert out.varbinds == trap.varbinds
    assert out.community == "cluster"


@pytest.fixture()
def env(rt):
    net = Network(rt)
    node = Node(rt, net, "w1", FAST_PC)
    receiver = TrapReceiver(rt, net, "manager")
    receiver.start()
    return net, node, receiver


def run(rt, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_receiver_dispatches_valid_traps(rt, env):
    net, node, receiver = env
    seen = []
    receiver.on_trap(lambda trap, sender: seen.append((dict(trap.varbinds), sender)))

    def proc():
        sock = net.bind_datagram(net.ephemeral("w1"))
        trap = TrapV2(request_id=1,
                      varbinds=[(HOST_RESOURCES.EXTERNAL_LOAD, 77)])
        sock.send_to(Address("manager", TRAP_PORT), encode_message(trap))
        rt.sleep(10.0)
        sock.close()
        receiver.stop()

    run(rt, proc)
    assert len(seen) == 1
    assert seen[0][0][HOST_RESOURCES.EXTERNAL_LOAD] == 77
    assert receiver.stats["traps"] == 1


def test_receiver_rejects_bad_community_and_garbage(rt, env):
    net, node, receiver = env
    seen = []
    receiver.on_trap(lambda trap, sender: seen.append(trap))

    def proc():
        sock = net.bind_datagram(net.ephemeral("w1"))
        bad = TrapV2(request_id=1, community="wrong")
        sock.send_to(Address("manager", TRAP_PORT), encode_message(bad))
        sock.send_to(Address("manager", TRAP_PORT), b"garbage")
        rt.sleep(10.0)
        sock.close()
        receiver.stop()

    run(rt, proc)
    assert seen == []
    assert receiver.stats["rejected"] == 2


def test_emitter_announces_then_traps_on_band_change(rt, env):
    net, node, receiver = env
    bands = []
    receiver.on_trap(
        lambda trap, sender: bands.append(dict(trap.varbinds)[HOST_RESOURCES.EXTERNAL_LOAD])
    )
    policy = ThresholdPolicy()
    emitter = LoadBandTrapEmitter(rt, node, Address("manager", TRAP_PORT),
                                  policy.band)

    def proc():
        emitter.start()
        rt.sleep(1000.0)                # idle: only the announcement
        announced = len(bands)
        node.cpu.set_background("user", 40.0)   # idle → busy
        rt.sleep(1000.0)
        node.cpu.set_background("user", 90.0)   # busy → loaded
        rt.sleep(1000.0)
        node.cpu.clear_background("user")       # loaded → idle
        rt.sleep(1000.0)
        emitter.stop()
        receiver.stop()
        return announced

    announced = run(rt, proc)
    assert announced == 1                # exactly one initial announcement
    # announce + idle→busy + busy→loaded + loaded→idle; the rolling window
    # may pass through the busy band on the way down (one extra trap).
    assert 4 <= emitter.traps_sent <= 5
    assert bands[0] <= 25.0              # announcement: idle
    assert 25.0 < bands[1] <= 50.0       # idle → busy
    assert bands[2] > 50.0               # busy → loaded
    assert bands[-1] <= 25.0             # finally idle again


def test_emitter_silent_within_band(rt, env):
    net, node, receiver = env
    policy = ThresholdPolicy()
    emitter = LoadBandTrapEmitter(rt, node, Address("manager", TRAP_PORT),
                                  policy.band)

    def proc():
        emitter.start()
        rt.sleep(600.0)
        node.cpu.set_background("user", 30.0)
        rt.sleep(1000.0)
        node.cpu.set_background("user", 45.0)  # still the busy band
        rt.sleep(1000.0)
        emitter.stop()
        receiver.stop()
        return emitter.traps_sent

    # announce + one idle→busy transition; the 30→45 shift is silent.
    assert run(rt, proc) == 2
