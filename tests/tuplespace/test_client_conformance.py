"""Every space client answers one script the way the in-process space does.

The script covers the batchable surface — write, write_all, read, take,
take_multiple, count with and without a transaction, commit and abort —
and runs once as single calls on each client (``SpaceProxy``,
``ShardRouter`` on 1 and 4 shards, ``RecordingSpace`` over the router)
and once as flushed batches on each batch class (``ProxyBatch``,
``ShardedBatch`` on 1 and 4 shards, ``RecordingBatch`` over the 4-shard
batch).  Every answer must equal the in-process ``JavaSpace``'s.

The script is written so that sharding cannot change a right answer:
single takes and reads name a key, the one wildcard ``take_multiple``
has room for everything, and a count under a transaction names the key
its transaction works on.
"""

from __future__ import annotations

import pytest

from repro.net import Address, LatencyModel, Network
from repro.tuplespace import (
    JavaSpace,
    ShardRouter,
    SpaceProxy,
    SpaceServer,
    TransactionManager,
)
from repro.verify import HistoryRecorder, RecordingSpace, check_history
from tests.conftest import run_in_sim
from tests.tuplespace.entries import TaskEntry


def task(task_id: int) -> TaskEntry:
    return TaskEntry("a", task_id, f"p{task_id}")


def key(task_id: int) -> TaskEntry:
    return TaskEntry(task_id=task_id)


#: One flush per inner list; a single-call client runs them back to back.
#: Steps are ``(op, entry/entries/template, transaction name)``.
SCRIPT = [
    [("write", task(1), None),
     ("write_all", [task(2), task(3), task(4)], None),
     ("count", TaskEntry(), None),
     ("read", key(2), None),
     ("take", key(3), None),
     ("take", key(9), None),
     ("count", key(3), None),
     ("take_multiple", key(4), None),
     ("count", TaskEntry("a"), None)],
    [("begin", None, "t"),
     ("write", task(5), "t"),
     ("count", key(5), "t"),              # sees its own write
     ("count", key(5), None),             # nobody else does yet
     ("read", key(5), "t"),
     ("commit", None, "t")],
    [("count", key(5), None)],
    [("begin", None, "u"),
     ("take", key(5), "u"),
     ("count", key(5), "u"),
     ("count", key(5), None),
     ("abort", None, "u")],
    [("count", key(5), None),
     ("count", TaskEntry(), None),
     ("take_multiple", TaskEntry(), None),
     ("count", TaskEntry(), None)],
]
STEPS = [step for flush in SCRIPT for step in flush]
ROOM = 64


def _plain(op, value):
    """An answer in a form every client shares."""
    if op in ("write", "begin", "commit", "abort"):
        return None          # a lease, a wire ack, a handle: client-specific
    if op == "write_all":
        if isinstance(value, dict):
            return value["count"]                    # a batch's wire form
        return len(value) if isinstance(value, list) else value
    if op == "take_multiple":
        return sorted(_plain("take", entry) for entry in value)
    if isinstance(value, TaskEntry):
        return (value.app, value.task_id, value.payload)
    return value


def single_calls(client, begin):
    txns, answers = {}, []
    for op, subject, name in STEPS:
        txn = txns.get(name)
        if op == "begin":
            value = txns[name] = begin()
        elif op in ("commit", "abort"):
            value = getattr(txn, op)()
        elif op in ("read", "take"):
            value = getattr(client, op)(subject, txn=txn, timeout_ms=0.0)
        elif op == "take_multiple":
            value = client.take_multiple(subject, ROOM, txn=txn,
                                         timeout_ms=0.0)
        else:
            value = getattr(client, op)(subject, txn=txn)
        answers.append(_plain(op, value))
    return answers


def batched(new_batch):
    txns, answers = {}, []
    for flush in SCRIPT:
        batch = new_batch()
        for op, subject, name in flush:
            under = {"txn": txns[name]} if name in txns else {}
            if op == "begin":
                txns[name] = batch.txn_create()
            elif op in ("commit", "abort"):
                getattr(batch, op)(txns[name])
            elif op == "take_multiple":
                batch.take_multiple(subject, ROOM, **under)
            else:
                getattr(batch, op)(subject, **under)
        answers += [_plain(op, value)
                    for (op, _, _), value in zip(flush, batch.flush())]
    return answers


def _serve(rt, net, shards, host):
    addresses = [Address(f"{host}{i}", 4100 + i) for i in range(shards)]
    for address in addresses:
        SpaceServer(rt, JavaSpace(rt), net, address).start()
    return addresses


def _proxy(rt, net):
    return SpaceProxy(net, "client", _serve(rt, net, 1, "proxy")[0])


def _router(rt, net, shards):
    return ShardRouter(net, "client", _serve(rt, net, shards, f"r{shards}-"))


def _recording(rt, net):
    history = HistoryRecorder(rt)
    return RecordingSpace(_router(rt, net, 4), history, client="client")


CLIENTS = {
    "proxy": _proxy,
    "router-1": lambda rt, net: _router(rt, net, 1),
    "router-4": lambda rt, net: _router(rt, net, 4),
    "recording-router-4": _recording,
}


@pytest.fixture()
def net(rt):
    return Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0,
                                            per_kb_ms=0.0))


def _reference(rt):
    return single_calls(JavaSpace(rt), TransactionManager(rt).create)


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_single_calls_answer_like_the_in_process_space(rt, net, name):
    def body():
        client = CLIENTS[name](rt, net)
        answers = single_calls(client, client.transaction)
        client.close()
        return client, answers

    expected = _reference(rt)
    client, answers = run_in_sim(rt, body)
    assert answers == expected
    if isinstance(client, RecordingSpace):
        assert check_history(client._history, final_entries=[]).ok


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_batches_answer_like_the_in_process_space(rt, net, name):
    def body():
        client = CLIENTS[name](rt, net)
        answers = batched(client.batch)
        client.close()
        return client, answers

    expected = _reference(rt)
    client, answers = run_in_sim(rt, body)
    assert answers == expected
    if isinstance(client, RecordingSpace):
        assert check_history(client._history, final_entries=[]).ok
