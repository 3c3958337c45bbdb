"""Self-healing SpaceProxy: reconnect, backoff, idempotent-only retry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConnectionClosedError,
    ConnectionRefusedError_,
    SpaceError,
)
from repro.net import Address, LatencyModel, Network
from repro.runtime import SimulatedRuntime
from repro.tuplespace import Entry, JavaSpace
from repro.tuplespace.proxy import RecoveryPolicy, SpaceProxy, SpaceServer

SERVER = Address("master", 4155)


class Point(Entry):
    def __init__(self, x=None, y=None):
        self.x = x
        self.y = y


@pytest.fixture()
def net(rt):
    return Network(rt, latency=LatencyModel(base_ms=1.0, jitter_ms=0.0,
                                            per_kb_ms=0.0))


def run(rt: SimulatedRuntime, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


def make_server(rt, net):
    space = JavaSpace(rt)
    server = SpaceServer(rt, space, net, SERVER)
    server.start()
    return space, server


def test_backoff_is_capped_exponential_with_seeded_jitter():
    policy = RecoveryPolicy()
    attempts = range(1, policy.MAX_RETRIES + 1)
    bare = [policy.backoff_ms(i) for i in attempts]
    # doubles, then caps
    assert bare == [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 2000.0, 2000.0]
    jittered = [policy.backoff_ms(i, np.random.default_rng(5))
                for i in attempts]
    again = [policy.backoff_ms(i, np.random.default_rng(5))
             for i in attempts]
    assert jittered == again                           # same seed, same plan
    for base, j in zip(bare, jittered):
        assert base <= j <= base * 1.5


def test_idempotent_read_survives_a_server_restart(rt, net):
    space, server = make_server(rt, net)
    proxy = SpaceProxy(net, "worker1", SERVER,
                       recovery=RecoveryPolicy())

    def proc():
        proxy.write(Point(1, 2))
        assert proxy.read(Point(None, None), timeout_ms=0.0) is not None
        server.crash()
        rt.sleep(5.0)
        server.start()
        # read is in the idempotent set: transparently reconnects.
        found = proxy.read(Point(None, None), timeout_ms=0.0)
        proxy.close()
        server.stop()
        return found

    found = run(rt, proc)
    assert found is not None and (found.x, found.y) == (1, 2)
    assert proxy.reconnects >= 1
    assert server.restarts == 1


def test_take_surfaces_the_disconnect_instead_of_retrying(rt, net):
    """A retried take could consume an entry twice; the caller must see
    the failure and restart its cycle."""
    space, server = make_server(rt, net)
    proxy = SpaceProxy(net, "worker1", SERVER,
                       recovery=RecoveryPolicy())

    def proc():
        proxy.write(Point(3, 4))
        server.crash()
        with pytest.raises(ConnectionClosedError):
            proxy.take(Point(None, None), timeout_ms=0.0)
        return proxy.retries

    assert run(rt, proc) == 0  # no blind retry happened


def test_rpc_timeout_detects_a_partitioned_server(rt, net):
    space, server = make_server(rt, net)
    proxy = SpaceProxy(net, "worker1", SERVER,
                       recovery=RecoveryPolicy(call_timeout_ms=200.0))

    def proc():
        proxy.ping()                 # connection established
        net.isolate("worker1")       # requests vanish mid-flight
        started = rt.now()
        with pytest.raises(ConnectionClosedError):
            proxy.take(Point(None, None), timeout_ms=0.0)
        waited = rt.now() - started
        net.heal("worker1")
        proxy.close()
        server.stop()
        return waited

    waited = run(rt, proc)
    assert waited == pytest.approx(200.0, abs=10.0)


def test_transactions_do_not_survive_a_reconnect(rt, net):
    """Server-side txn state is per-connection: the drop aborted it, and
    the old id must not silently attach to the new connection."""
    space, server = make_server(rt, net)
    proxy = SpaceProxy(net, "worker1", SERVER,
                       recovery=RecoveryPolicy())

    def proc():
        txn = proxy.transaction()
        proxy.write(Point(9, 9), txn=txn)
        server.crash()
        rt.sleep(5.0)
        server.start()
        # The txn was aborted server-side: its write never became visible.
        assert proxy.read(Point(None, None), timeout_ms=0.0) is None
        with pytest.raises(SpaceError):
            proxy.write(Point(8, 8), txn=txn)
        proxy.close()
        server.stop()
        return space.count(Point(None, None))

    assert run(rt, proc) == 0


def test_gives_up_after_max_retries_when_server_stays_down(rt, net):
    space, server = make_server(rt, net)
    proxy = SpaceProxy(net, "worker1", SERVER,
                       recovery=RecoveryPolicy())

    def proc():
        proxy.ping()
        server.crash()               # and never restarts
        with pytest.raises((ConnectionClosedError, ConnectionRefusedError_)):
            proxy.ping()
        return proxy.retries

    assert run(rt, proc) == RecoveryPolicy.MAX_RETRIES


def test_a_crash_hangs_up_on_a_connection_not_yet_accepted(rt, net):
    """A client that dials in the instant the server crashes, before the
    accept event runs, hears the hang-up one link latency later.  With no
    recovery policy (the master's client: no reply deadline) it used to
    wait forever."""
    space, server = make_server(rt, net)
    proxy = SpaceProxy(net, "master", SERVER)

    def proc():
        rt.sleep(5.0)                # the accept loop is serving
        proxy._connection()          # dialled: queued, not yet accepted
        server.crash()
        started = rt.now()
        with pytest.raises(ConnectionClosedError):
            proxy.ping()
        return rt.now() - started

    assert run(rt, proc) == pytest.approx(1.0)     # the link's base_ms
