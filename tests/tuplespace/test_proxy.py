"""Remote space access: proxy/server RPC, remote transactions, crash recovery."""

from __future__ import annotations

import pytest

from repro.errors import SpaceError
from repro.net import Address, LatencyModel, Network
from repro.tuplespace import JavaSpace, SpaceProxy, SpaceServer
from tests.tuplespace.entries import TaskEntry

SERVER = Address("master", 4155)


@pytest.fixture()
def env(rt):
    net = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0, per_kb_ms=0.0))
    space = JavaSpace(rt)
    server = SpaceServer(rt, space, net, SERVER)
    server.start()
    return net, space, server


def run(rt, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_remote_write_take_round_trip(rt, env):
    net, space, _ = env

    def proc():
        proxy = SpaceProxy(net, "worker1", SERVER)
        proxy.write(TaskEntry("app", 1, "remote-payload"))
        entry = proxy.take(TaskEntry(), timeout_ms=100.0)
        proxy.close()
        return entry.payload

    assert run(rt, proc) == "remote-payload"


def test_remote_operations_pay_network_latency(rt, env):
    net, _, _ = env

    def proc():
        proxy = SpaceProxy(net, "worker1", SERVER)
        t0 = rt.now()
        proxy.write(TaskEntry("app", 1, None))
        elapsed = rt.now() - t0
        proxy.close()
        return elapsed

    # request + response, 0.5 ms each way at minimum
    assert run(rt, proc) >= 1.0


def test_two_proxies_share_one_space(rt, env):
    net, _, _ = env
    results = {}

    def producer():
        proxy = SpaceProxy(net, "producer", SERVER)
        for i in range(5):
            proxy.write(TaskEntry("app", i, None))
        proxy.close()

    def consumer():
        proxy = SpaceProxy(net, "consumer", SERVER)
        got = []
        for _ in range(5):
            entry = proxy.take(TaskEntry(), timeout_ms=1000.0)
            got.append(entry.task_id)
        results["ids"] = sorted(got)
        proxy.close()

    rt.spawn(producer, name="producer")
    rt.spawn(consumer, name="consumer")
    rt.kernel.run_until_idle()
    assert results["ids"] == [0, 1, 2, 3, 4]


def test_blocking_take_across_network(rt, env):
    net, space, _ = env

    def late_writer():
        rt.sleep(50.0)
        space.write(TaskEntry("app", 9, None))

    def taker():
        proxy = SpaceProxy(net, "worker", SERVER)
        entry = proxy.take(TaskEntry(), timeout_ms=None)
        proxy.close()
        return entry.task_id, rt.now()

    rt.spawn(late_writer, name="late")
    proc = rt.kernel.spawn(taker, name="taker")
    rt.kernel.run_until_idle()
    task_id, t = proc.result
    assert task_id == 9
    assert t >= 50.0


def test_remote_take_timeout(rt, env):
    net, _, _ = env

    def proc():
        proxy = SpaceProxy(net, "worker", SERVER)
        entry = proxy.take(TaskEntry(), timeout_ms=30.0)
        proxy.close()
        return entry, rt.now()

    entry, t = run(rt, proc)
    assert entry is None
    assert t >= 30.0


def test_remote_transaction_commit(rt, env):
    net, space, _ = env

    def proc():
        proxy = SpaceProxy(net, "worker", SERVER)
        with proxy.transaction() as txn:
            proxy.write(TaskEntry("app", 1, None), txn=txn)
        visible = proxy.count(TaskEntry())
        proxy.close()
        return visible

    assert run(rt, proc) == 1


def test_remote_transaction_abort_restores_take(rt, env):
    net, space, _ = env

    def proc():
        proxy = SpaceProxy(net, "worker", SERVER)
        proxy.write(TaskEntry("app", 1, None))
        txn = proxy.transaction()
        proxy.take(TaskEntry(), txn=txn, timeout_ms=100.0)
        txn.abort()
        restored = proxy.take(TaskEntry(), timeout_ms=100.0)
        proxy.close()
        return restored is not None

    assert run(rt, proc) is True


def test_connection_drop_aborts_open_transactions(rt, env):
    """A worker crash mid-task must put the task back (paper's fault tolerance)."""
    net, space, _ = env

    def crashing_worker():
        proxy = SpaceProxy(net, "doomed", SERVER)
        proxy.write(TaskEntry("app", 1, None))
        txn = proxy.transaction()
        proxy.take(TaskEntry(), txn=txn, timeout_ms=100.0)
        proxy.close()  # dies without commit

    def survivor():
        rt.sleep(100.0)
        proxy = SpaceProxy(net, "survivor", SERVER)
        entry = proxy.take(TaskEntry(), timeout_ms=500.0)
        proxy.close()
        return entry is not None

    rt.spawn(crashing_worker, name="doomed")
    proc = rt.kernel.spawn(survivor, name="survivor")
    rt.kernel.run_until_idle()
    assert proc.result is True


def test_remote_error_is_marshalled(rt, env):
    net, _, _ = env

    def proc():
        proxy = SpaceProxy(net, "worker", SERVER)
        try:
            proxy._attempt("bogus_op", {})
        except SpaceError as exc:
            proxy.close()
            return str(exc)

    message = run(rt, proc)
    assert "bogus_op" in message


def test_remote_notify_delivers_events(rt, env):
    net, _, _ = env
    events = []

    def proc():
        proxy = SpaceProxy(net, "watcher", SERVER)
        proxy.notify(TaskEntry(app="hot"), events.append, runtime=rt)
        rt.sleep(5.0)
        proxy.write(TaskEntry("cold", 1, None))
        proxy.write(TaskEntry("hot", 2, None))
        rt.sleep(50.0)
        return [e.sequence for e in events]

    assert run(rt, proc) == [1]


def test_server_stop_refuses_new_connections(rt, env):
    net, _, server = env

    def proc():
        server.stop()
        from repro.errors import ConnectionRefusedError_
        with pytest.raises(ConnectionRefusedError_):
            net.connect("worker", SERVER)
        return True

    assert run(rt, proc)
