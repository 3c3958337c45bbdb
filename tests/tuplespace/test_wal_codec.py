"""WAL framing: compact frames and pickle-fallback frames share one log.

Encoding is compact-first with a pickle fallback at both levels: a
commit record that does not fit the fixed WAL layout (oversized id,
exotic expiration) is framed through ``pickle.dumps``, and an entry of
an unregistered class is a pickle frame *inside* a compact WAL frame.
``decode_log`` and ``decode_any`` dispatch per frame on the first byte
(0xC4 / 0xC3 compact, 0x80 pickle PROTO), so a mixed log replays as one
stream; these tests pin that down at the store level and end-to-end
through :class:`DurableSpace`, across a crash.
"""

from __future__ import annotations

import pytest

from repro.errors import SpaceError
from repro.runtime import SimulatedRuntime
from repro.tuplespace import Entry
from repro.tuplespace.durable import DurableSpace
from repro.tuplespace.wal import (
    WAL_MAGIC,
    CommitRecord,
    FileWalStore,
    WriteAheadLog,
    decode_log,
    op_take,
    op_write,
    record_frame,
)
from repro.util.codec import MAGIC, encode_entry
from tests.tuplespace.entries import TaskEntry

PICKLE_PROTO = 0x80


class Note(Entry):
    """Deliberately *not* registered: its frames are the pickle fallback."""

    def __init__(self, text=None):
        self.text = text


@pytest.fixture
def runtime():
    rt = SimulatedRuntime()
    yield rt
    rt.shutdown()


def run(runtime, fn, name="test-proc"):
    proc = runtime.kernel.spawn(fn, name=name)
    runtime.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


def _frame_first_bytes(raw):
    """First byte of every frame in a WAL log (0xC4 or pickle 0x80)."""
    import io
    import pickle
    import struct

    firsts, pos = [], 0
    while pos < len(raw):
        firsts.append(raw[pos])
        if raw[pos] == WAL_MAGIC:
            body_len, = struct.unpack_from("<I", raw, pos + 1)
            pos += 5 + body_len
        else:
            fh = io.BytesIO(raw)
            fh.seek(pos)
            pickle.load(fh)
            pos = fh.tell()
    return firsts


def _record(lsn, fallback=False, epoch=0):
    """One single-write record; ``fallback`` gives it an entry id past
    i64, which the compact layout cannot hold."""
    entry_id = (1 << 70) + lsn if fallback else lsn
    return CommitRecord(lsn=lsn,
                        ops=(op_write(entry_id, b"x" * 20, float("inf")),),
                        epoch=epoch)


def _records(n, start=1, fallback=False):
    return [_record(start + i, fallback) for i in range(n)]


# -- frame level ---------------------------------------------------------------


def test_uncompactable_record_falls_back_to_a_pickle_frame():
    plain, exotic = _record(1), _record(2, fallback=True)
    assert record_frame(plain)[0] == WAL_MAGIC
    frame = record_frame(exotic)
    assert frame[0] == PICKLE_PROTO
    assert record_frame(exotic) is frame  # encoded once, then cached
    assert decode_log(record_frame(plain) + frame) == [plain, exotic]


def test_mixed_frame_log_decodes_as_one_stream(tmp_path):
    path = tmp_path / "wal"
    pattern = [True, True, False, True, False, False]  # fallback?
    written = [_record(i + 1, fallback) for i, fallback in enumerate(pattern)]
    store = FileWalStore(str(path))
    for record in written[:3]:
        store.append(record)
    store.sync()
    store.close()

    # Reopen: the replayed frames of both kinds are there; keep appending.
    store = FileWalStore(str(path))
    assert [r.lsn for r in store.records] == [1, 2, 3]
    for record in written[3:]:
        store.append(record)
    store.sync()
    store.close()

    raw = (path.parent / "wal.log").read_bytes()
    assert _frame_first_bytes(raw) == [
        PICKLE_PROTO if fallback else WAL_MAGIC for fallback in pattern]
    assert decode_log(raw) == written
    store = FileWalStore(str(path))
    assert store.records == written
    assert store.last_lsn() == 6
    store.close()


def test_compact_frames_preserve_op_value_types():
    # Expirations may be float (lease deadlines, +inf) or int (FOREVER
    # sentinels from older call sites); the two write tags keep the type.
    record = CommitRecord(
        lsn=1,
        ops=(op_write(1, b"data", float("inf")),
             op_write(2, b"more", 12),
             op_take(1)),
        epoch=2)
    frame = record_frame(record)
    assert frame[0] == WAL_MAGIC
    decoded, = decode_log(frame)
    assert decoded == record
    exps = [op[3] for op in decoded.ops[:2]]  # (kind, id, data, expiration)
    assert [type(e) for e in exps] == [float, int]


@pytest.mark.parametrize("fallback", [False, True])
def test_torn_tail_is_dropped(tmp_path, fallback):
    path = tmp_path / "wal"
    store = FileWalStore(str(path))
    for record in _records(2) + _records(1, start=3, fallback=fallback):
        store.append(record)
    store.sync()
    store.close()
    log = path.parent / "wal.log"
    log.write_bytes(log.read_bytes()[:-3])  # crash mid-write of last frame
    store = FileWalStore(str(path))
    assert [r.lsn for r in store.records] == [1, 2]
    store.close()


def test_cached_frame_does_not_change_record_equality():
    plain, framed = _records(1)[0], _records(1)[0]
    record_frame(framed)
    assert plain == framed
    assert hash(plain) == hash(framed)


@pytest.mark.parametrize("codec", ["pickle", "msgpack"])
def test_store_rejects_any_codec_but_compact(tmp_path, codec):
    with pytest.raises(SpaceError):
        FileWalStore(str(tmp_path / "wal"), codec=codec)


# -- end to end through DurableSpace ------------------------------------------


def test_mixed_entry_frames_survive_crash_and_recovery(runtime, tmp_path):
    """Registered and unregistered entry classes share one space: their
    entry frames (compact / pickle fallback) interleave in the log, are
    partially consumed, and are all there after a crash + recover — and
    new writes of both kinds keep working."""
    path = str(tmp_path / "wal")
    store = FileWalStore(path)
    space = DurableSpace(runtime, wal=WriteAheadLog(store),
                         snapshot_every=None)

    def before():
        for i in range(3):
            space.write(TaskEntry("app", i, f"p{i}"))
            space.write(Note(f"n{i}"))
        assert space.take(TaskEntry(task_id=0), timeout_ms=0.0) is not None
        assert space.take(Note("n1"), timeout_ms=0.0) is not None

    run(runtime, before)
    store.sync()
    store.close()

    # Both entry-frame kinds really are on disk, embedded verbatim.
    raw = open(path + ".log", "rb").read()
    datas = [op[2] for record in decode_log(raw) for op in record.ops
             if op[0] == "write"]
    assert [d[0] for d in datas] == [MAGIC, PICKLE_PROTO] * 3

    survivor = FileWalStore(path)
    recovered = DurableSpace.recover(runtime, survivor, snapshot_every=None)

    def drain(template, field):
        got = []
        while True:
            entry = recovered.take(template, timeout_ms=0.0)
            if entry is None:
                return got
            got.append(getattr(entry, field))

    def after():
        recovered.write(TaskEntry("app", 99, "new"))
        recovered.write(Note("new"))
        return drain(TaskEntry(app="app"), "task_id"), drain(Note(), "text")

    tasks, notes = run(runtime, after)
    assert tasks == [1, 2, 99]
    assert notes == ["n0", "n2", "new"]
    survivor.close()


@pytest.mark.parametrize("entry", [
    TaskEntry("app", 1, {"nested": [1, 2, (3, 4)]}),
    Note("unregistered"),
], ids=["compact", "pickle-fallback"])
def test_recovery_round_trips_entry_frames(runtime, tmp_path, entry):
    """Entry payload bytes inside WAL ops are themselves codec frames;
    a store must replay them bit-exactly, whichever kind they are."""
    path = str(tmp_path / "wal")
    store = FileWalStore(path)
    space = DurableSpace(runtime, wal=WriteAheadLog(store),
                         snapshot_every=None)

    def before():
        space.write(entry)

    run(runtime, before)
    store.sync()
    store.close()

    survivor = FileWalStore(path)
    recovered = DurableSpace.recover(runtime, survivor, snapshot_every=None)

    def after():
        return recovered.take(Entry(), timeout_ms=0.0)

    got = run(runtime, after)
    assert type(got) is type(entry)
    assert got.__dict__ == entry.__dict__
    # Byte-identity of the stored frame (the canonical-encoding contract
    # applied through a crash).
    assert encode_entry(got) == encode_entry(entry)
    survivor.close()
