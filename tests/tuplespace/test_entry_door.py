"""What the space refuses at the door, before anything changes.

Two doors.  ``write`` takes a live entry and encodes it: an attribute
outside the class's schema (or a class with no usable schema) is an
``EntryError`` from the in-process space, the proxy and a proxy batch
alike — raised by the encoder, so nothing was stored, journalled or sent.
``write_encoded`` / the server's ``write`` op take bytes a client
produced: only ``bytes`` holding an entry frame (``0xC3``) of a known
``Entry`` schema get in, and the server never unpickles what a client
calls an entry.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct

import pytest

from repro.errors import EntryError, SpaceError
from repro.net import Address, LatencyModel, Network
from repro.tuplespace import Entry, SpaceProxy, SpaceServer
from repro.tuplespace.durable import DurableSpace
from repro.tuplespace.lease import FOREVER
from repro.util.codec import MAGIC, encode_entry, register_entry
from tests.conftest import run_in_sim
from tests.tuplespace.entries import TaskEntry

SERVER = Address("master", 4155)

#: Set by unpickling :class:`_Bomb` — which nothing on the server may do.
UNPICKLED: list[str] = []


def _mark_unpickled():
    UNPICKLED.append("a client-supplied frame was unpickled")


class _Bomb:
    def __reduce__(self):
        return _mark_unpickled, ()


class NotAnEntry:
    def __init__(self, x=None):
        self.x = x


register_entry(NotAnEntry)      # a schema, but no Entry: frames of it stay out


@pytest.fixture()
def env(rt):
    net = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0,
                                           per_kb_ms=0.0))
    space = DurableSpace(rt, snapshot_every=None)
    SpaceServer(rt, space, net, SERVER).start()
    return net, space


def _state(space):
    return (space.wal.last_lsn, dict(space.stats),
            len(space.contents(Entry())))


def _live_bomb() -> bytes:
    frame = pickle.dumps(_Bomb(), protocol=pickle.HIGHEST_PROTOCOL)
    pickle.loads(frame)
    assert UNPICKLED, "the reducer must fire when the frame *is* unpickled"
    UNPICKLED.clear()
    return frame


def test_server_refuses_encoded_writes_that_are_not_entry_frames(rt, env):
    net, space = env
    good = encode_entry(TaskEntry("app", 1, "p"))
    refused = {
        "pickle": _live_bomb(),
        "bytearray": bytearray(good),
        "empty": b"",
        "truncated header": good[:3],
        "unknown fingerprint": bytes([MAGIC]) + struct.pack("<I", 0xDEADBEEF),
        "not an Entry": encode_entry(NotAnEntry(1)),
    }

    def write_args(**frames):
        return {**frames, "lease_ms": FOREVER, "txn_id": None}

    def body():
        proxy = SpaceProxy(net, "client", SERVER)
        proxy._call("write", write_args(entry_data=good))
        before = _state(space)
        for what, frame in refused.items():
            with pytest.raises(SpaceError):
                proxy._call("write", write_args(entry_data=frame))
            assert _state(space) == before, what
            with pytest.raises(SpaceError):     # all of a batch or nothing
                proxy._call("write_all",
                            write_args(entries_data=[good, frame]))
            assert _state(space) == before, what
        # A memoryview cannot cross the wire; the in-process door holds.
        with pytest.raises(EntryError):
            space.write_encoded(memoryview(good))
        assert _state(space) == before
        proxy.close()
        return before

    lsn, stats, stored = run_in_sim(rt, body)
    assert (lsn, stats["writes"], stored) == (1, 1, 1)
    assert UNPICKLED == []


def test_extra_attribute_is_refused_by_every_write_path(rt, env):
    net, space = env
    drifted = TaskEntry("app", 1, "p")
    drifted.note = "outside the schema"

    def body():
        proxy = SpaceProxy(net, "client", SERVER)
        before = _state(space)
        sent = net.stats["messages"]
        batch = proxy.batch()
        for write in (space.write, proxy.write, batch.write,
                      lambda e: space.write_all([TaskEntry("app", 2), e]),
                      lambda e: proxy.write_all([TaskEntry("app", 2), e]),
                      lambda e: batch.write_all([TaskEntry("app", 2), e])):
            with pytest.raises(EntryError, match="outside its schema"):
                write(drifted)
        assert batch.flush() == []           # nothing was queued either
        assert net.stats["messages"] == sent
        assert _state(space) == before
        proxy.close()

    run_in_sim(rt, body)
    assert space.wal.last_lsn == 0


def test_missing_attribute_reads_back_none(rt, env):
    net, space = env
    partial = TaskEntry.__new__(TaskEntry)
    partial.task_id = 7

    def body():
        proxy = SpaceProxy(net, "client", SERVER)
        proxy.write(partial)
        space.write(partial)
        got = proxy.take_multiple(TaskEntry(task_id=7), max_entries=4)
        proxy.close()
        return [vars(entry) for entry in got]

    assert run_in_sim(rt, body) == \
        [{"app": None, "task_id": 7, "payload": None}] * 2


def test_dataclass_entry_must_register_before_its_first_write(rt, env):
    net, space = env

    @dataclasses.dataclass
    class Reading(Entry):
        site: str = None
        value: float = None

    def body():
        before = _state(space)
        with pytest.raises(EntryError, match="register_entry"):
            space.write(Reading("roof", 21.5))
        assert _state(space) == before
        register_entry(Reading)
        space.write(Reading("roof", 21.5))
        return space.take(Reading(site="roof"), timeout_ms=0.0)

    assert run_in_sim(rt, body) == Reading("roof", 21.5)
