"""Threaded-runtime binding: the same stack on real OS threads.

These tests exercise real concurrency (GIL-interleaved threads), so they
catch races the cooperative simulator can never produce.
"""

from __future__ import annotations

import threading

import pytest

from repro.net import Address, Network
from repro.runtime import ThreadedRuntime
from repro.tuplespace import JavaSpace, SpaceProxy, SpaceServer, TransactionManager
from tests.tuplespace.entries import TaskEntry


@pytest.fixture()
def rtt():
    runtime = ThreadedRuntime()
    yield runtime
    runtime.shutdown()


def test_clock_and_sleep(rtt):
    t0 = rtt.now()
    rtt.sleep(20.0)
    assert rtt.now() - t0 >= 18.0  # sleep granularity tolerance


def test_spawn_and_join(rtt):
    results = []
    handle = rtt.spawn(lambda: results.append(42), name="child")
    handle.join(timeout_ms=1_000.0)
    assert results == [42]
    assert not handle.is_alive()


def test_call_later_fires(rtt):
    fired = threading.Event()
    rtt.call_later(10.0, fired.set)
    assert fired.wait(timeout=1.0)


def test_call_later_cancel(rtt):
    fired = threading.Event()
    handle = rtt.call_later(50.0, fired.set)
    handle.cancel()
    assert not fired.wait(timeout=0.15)


def test_condition_wait_notify_across_threads(rtt):
    cond = rtt.condition()
    state = {"ready": False}

    def notifier():
        rtt.sleep(20.0)
        with cond:
            state["ready"] = True
            cond.notify_all()

    rtt.spawn(notifier, name="notifier")
    with cond:
        ok = rtt.wait_for(cond, lambda: state["ready"], timeout_ms=2_000.0)
    assert ok


def test_space_exactly_once_under_real_contention(rtt):
    """4 real consumer threads race for 200 entries: none lost/duplicated."""
    space = JavaSpace(rtt)
    taken: list[int] = []
    taken_lock = threading.Lock()

    def consumer():
        while True:
            entry = space.take(TaskEntry(), timeout_ms=300.0)
            if entry is None:
                return
            with taken_lock:
                taken.append(entry.task_id)

    consumers = [rtt.spawn(consumer, name=f"c{i}") for i in range(4)]

    def producer():
        for i in range(200):
            space.write(TaskEntry("app", i, None))

    producer_handle = rtt.spawn(producer, name="producer")
    producer_handle.join(timeout_ms=5_000.0)
    for handle in consumers:
        handle.join(timeout_ms=5_000.0)

    assert sorted(taken) == list(range(200))


def test_transactions_under_real_threads(rtt):
    space = JavaSpace(rtt)
    txns = TransactionManager(rtt)
    outcome = {}

    def aborter():
        txn = txns.create()
        space.take(TaskEntry(), txn=txn, timeout_ms=1_000.0)
        rtt.sleep(30.0)
        txn.abort()

    def claimer():
        outcome["entry"] = space.take(TaskEntry(), timeout_ms=2_000.0)

    space.write(TaskEntry("app", 7, None))
    a = rtt.spawn(aborter, name="aborter")
    b = rtt.spawn(claimer, name="claimer")
    a.join(timeout_ms=5_000.0)
    b.join(timeout_ms=5_000.0)
    assert outcome["entry"] is not None
    assert outcome["entry"].task_id == 7


def test_remote_space_over_threaded_network(rtt):
    net = Network(rtt)
    space = JavaSpace(rtt)
    SpaceServer(rtt, space, net, Address("master", 4155)).start()
    result = {}

    def client():
        proxy = SpaceProxy(net, "client", Address("master", 4155))
        proxy.write(TaskEntry("app", 1, "over-threads"))
        result["entry"] = proxy.take(TaskEntry(), timeout_ms=2_000.0)
        proxy.close()

    handle = rtt.spawn(client, name="client")
    handle.join(timeout_ms=5_000.0)
    assert result["entry"].payload == "over-threads"


def test_blocking_take_woken_by_other_thread(rtt):
    space = JavaSpace(rtt)
    result = {}

    def taker():
        result["entry"] = space.take(TaskEntry(), timeout_ms=3_000.0)

    handle = rtt.spawn(taker, name="taker")
    rtt.sleep(50.0)
    space.write(TaskEntry("app", 9, None))
    handle.join(timeout_ms=5_000.0)
    assert result["entry"].task_id == 9


def test_socket_callback_runs_in_sequence_order_never_concurrently(rtt):
    """A callback-served socket on real timer threads: four threads hand
    it deliveries in scrambled order; the callback must see them in
    sequence order and never run twice at once."""
    import sys

    from repro.net.latency import IDEAL
    from repro.util.serialization import serialize

    network = Network(rtt, latency=IDEAL)
    listener = network.listen(Address("srv", 1))
    network.connect("cli", Address("srv", 1))
    served = listener.accept()
    total, threads = 400, 4
    seen: list[int] = []
    running, overlaps = [0], [0]
    done = threading.Event()

    def on_message():
        # Nothing may follow the empty poll: it re-arms the callback.
        while (message := served.poll()) is not None:
            running[0] += 1
            if running[0] > 1:
                overlaps[0] += 1
            seen.append(message)
            running[0] -= 1
            if len(seen) == total:
                done.set()

    served.serve(on_message)
    on_message()                        # arm

    def deliver(worker):
        # Worker w owns sequence numbers w, w+4, ... and walks them
        # backwards, so most arrive ahead of what the socket expects.
        for seq in reversed(range(worker, total, threads)):
            served._deliver(serialize(seq), seq)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=deliver, args=(w,))
                   for w in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert done.wait(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert seen == list(range(total))
    assert overlaps[0] == 0
