"""ProxyBatch: many space operations pipelined into one ``batch`` RPC."""

from __future__ import annotations

import pytest

from repro.errors import SpaceError, TransactionError
from repro.net import Address, LatencyModel, Network
from repro.tuplespace import JavaSpace, SpaceProxy, SpaceServer
from repro.util.codec import encode_entry
from tests.tuplespace.entries import TaskEntry

SERVER = Address("master", 4155)


@pytest.fixture()
def env(rt):
    net = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0,
                                           per_kb_ms=0.0))
    space = JavaSpace(rt)
    SpaceServer(rt, space, net, SERVER).start()
    return net, space


def run(rt, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


def counted(proxy):
    """Wrap the proxy's batch transport with an RPC counter."""
    calls = []
    original = proxy._batch_once

    def spy(ops):
        calls.append(len(ops))
        return original(ops)

    proxy._batch_once = spy
    return calls


def test_flush_is_one_rpc_with_values_in_order(rt, env):
    net, space = env

    def body():
        proxy = SpaceProxy(net, "client", SERVER)
        calls = counted(proxy)
        batch = proxy.batch()
        batch.write(TaskEntry("a", 1, None))
        batch.write_all([TaskEntry("a", 2, None), TaskEntry("a", 3, None)])
        batch.count(TaskEntry())
        batch.take_multiple(TaskEntry(), max_entries=2)
        values = batch.flush()
        proxy.close()
        return calls, values

    calls, values = run(rt, body)
    assert calls == [4]                      # four sub-ops, one message
    lease, written, count, taken = values
    assert written == {"count": 2}           # write_all's wire-level reply
    assert count == 3
    assert [e.task_id for e in taken] == [1, 2]


def test_empty_flush_sends_nothing(rt, env):
    net, space = env

    def body():
        proxy = SpaceProxy(net, "client", SERVER)
        calls = counted(proxy)
        out = proxy.batch().flush()
        proxy.close()
        return calls, out

    assert run(rt, body) == ([], [])


def test_intra_batch_txn_create_resolves_batch_ref(rt, env):
    net, space = env

    def body():
        space.write_all([TaskEntry("a", i, None) for i in range(4)])
        proxy = SpaceProxy(net, "client", SERVER)
        calls = counted(proxy)
        batch = proxy.batch()
        txn = batch.txn_create(timeout_ms=60_000.0)
        batch.take_multiple(TaskEntry(), max_entries=3, txn=txn)
        placeholder = dict(txn.txn_id)       # before the flush resolves it
        values = batch.flush()
        taken = values[-1]
        hidden = space.count(TaskEntry())    # takes pending under the txn
        txn.abort()                          # batch held one txn: takes revert
        restored = space.count(TaskEntry())
        proxy.close()
        return calls, placeholder, txn.txn_id, len(taken), hidden, restored

    calls, placeholder, txn_id, taken, hidden, restored = run(rt, body)
    assert calls == [2]                      # open + take in a single RPC
    assert placeholder == {"batch_ref": 0}
    assert isinstance(txn_id, int)           # resolved to the server's id
    assert taken == 3
    assert hidden == 1
    assert restored == 4


def test_commit_in_batch_marks_handle_completed(rt, env):
    net, space = env

    def body():
        proxy = SpaceProxy(net, "client", SERVER)
        batch = proxy.batch()
        txn = batch.txn_create()
        batch.write(TaskEntry("a", 7, None), txn=txn)
        batch.commit(txn)
        batch.flush()
        visible = space.count(TaskEntry())
        proxy.close()
        return txn.completed, visible

    assert run(rt, body) == (True, 1)


def test_failing_sub_op_raises_and_keeps_the_prefix(rt, env):
    net, space = env

    def body():
        proxy = SpaceProxy(net, "client", SERVER)
        batch = proxy.batch()
        batch.write(TaskEntry("a", 1, None))
        batch.commit(RemoteStub())           # unknown txn id: fails
        batch.write(TaskEntry("a", 2, None))
        try:
            batch.flush()
        except TransactionError:
            error = True
        else:
            error = False
        count = space.count(TaskEntry())
        proxy.close()
        return error, count

    error, count = run(rt, body)
    assert error
    assert count == 1                        # prefix applied, suffix skipped


class RemoteStub:
    txn_id = 999_999
    completed = False


def test_bad_batch_ref_is_rejected(rt, env):
    net, space = env

    def body():
        proxy = SpaceProxy(net, "client", SERVER)
        ops = [("write", {"entry_data": encode_entry(TaskEntry("a", 1, None)),
                          "lease_ms": float("inf"),
                          "txn_id": {"batch_ref": 5}})]
        replies = proxy._call_batch(ops)
        proxy.close()
        return replies

    replies = run(rt, body)
    assert len(replies) == 1
    assert not replies[0]["ok"]
    assert replies[0]["type"] == "TransactionError"


def test_nested_batch_is_not_batchable(rt, env):
    net, space = env

    def body():
        proxy = SpaceProxy(net, "client", SERVER)
        replies = proxy._call_batch([("batch", {"ops": []})])
        proxy.close()
        return replies

    replies = run(rt, body)
    assert not replies[0]["ok"]
