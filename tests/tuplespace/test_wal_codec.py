"""WAL framing: one record kind, one entry-frame kind.

A commit record is a ``0xC5`` frame whose ops sit in the fixed op layout
and whose entry payloads are ``0xC3`` entry frames spliced in verbatim —
there is no second kind at either level.  A record that does not fit the
layout (oversized id, exotic expiration) raises ``SpaceError``; any
other first byte where a frame should start — the retired ``0xC6``
included — is an invalid frame under the one rule: a torn tail if
nothing valid follows, ``WalCorruptionError`` otherwise.  Every frame
rides one checksummed envelope (magic, length, crc32, body).  These
tests pin that down at the store level and end-to-end through
:class:`DurableSpace`, across a crash — and pin what the checksum buys:
a torn tail is dropped, damage in place raises.
"""

from __future__ import annotations

import os
import struct
from zlib import crc32

import pytest

from repro.errors import SpaceError, WalCorruptionError
from repro.runtime import SimulatedRuntime
from repro.tuplespace import Entry
from repro.tuplespace import wal as wal_module
from repro.tuplespace.durable import DurableSpace
from repro.tuplespace.wal import (
    WAL_MAGIC,
    CommitRecord,
    FileWalStore,
    WalStore,
    WriteAheadLog,
    decode_checkpoint,
    decode_log,
    op_take,
    op_write,
    record_frame,
)
from repro.util.codec import MAGIC, encode_entry, peek_class
from tests.tuplespace.entries import TaskEntry

#: First byte of the record kind that no longer exists.
RETIRED_MAGIC = 0xC6


class Note(Entry):
    """A second entry class, defined — and so registered — here."""

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


def _frame_offsets(raw):
    """Start offset of every frame in a WAL log, plus its end."""
    offsets, pos = [], 0
    while pos < len(raw):
        offsets.append(pos)
        body_len, = struct.unpack_from("<I", raw, pos + 1)
        pos += 9 + body_len                  # magic, length, crc32, body
    return offsets + [pos]


def _frame_first_bytes(raw):
    """Magic of every frame in a WAL log."""
    return [raw[pos] for pos in _frame_offsets(raw)[:-1]]


def _record(lsn, batch=False, epoch=0):
    """One single-write record (the one-struct-call body), or with
    ``batch`` a write + int-expiry write + take (the general body)."""
    ops = (op_write(lsn, b"x" * 20, float("inf")),)
    if batch:
        ops += (op_write(1000 + lsn, b"y" * 7, 12), op_take(lsn))
    return CommitRecord(lsn=lsn, ops=ops, epoch=epoch)


def _records(n, start=1):
    return [_record(start + i) for i in range(n)]


def _retired_frame(lsn):
    """A checksummed frame of the retired ``0xC6`` kind — what a log
    written before it was deleted could hold at a frame boundary."""
    body = struct.pack("<qq", lsn, 0) + b"\x80\x05]\x94."   # pickle of []
    return struct.pack("<BII", RETIRED_MAGIC, len(body), crc32(body)) + body


# -- frame level ---------------------------------------------------------------


@pytest.mark.parametrize("ops", [
    (op_write(1 << 70, b"x", float("inf")),),
    (op_write(1, b"x", float("inf")), op_take(1 << 70)),
    (op_write(1, b"x", 1 << 70),),
    (op_write(1, bytearray(b"x"), float("inf")),),
    (("rename", 1),),
], ids=["write-id", "take-id", "expiration", "bytearray", "kind"])
def test_uncompactable_record_raises(ops):
    """There is no second record kind to absorb an op that does not fit
    the layout: the record is refused, as a checkpoint of it would be."""
    plain = _record(1)
    frame = record_frame(plain)
    assert frame[0] == WAL_MAGIC
    assert record_frame(plain) is frame      # encoded once, then cached
    with pytest.raises(SpaceError, match="does not fit"):
        record_frame(CommitRecord(lsn=2, ops=ops))


def test_mixed_frame_log_decodes_as_one_stream(tmp_path):
    path = tmp_path / "wal"
    pattern = [True, True, False, True, False, False]  # batch body?
    written = [_record(i + 1, batch) for i, batch in enumerate(pattern)]
    store = FileWalStore(str(path))
    for record in written[:3]:
        store.append(record)
    store.sync()
    store.close()

    # Reopen: the replayed frames of both shapes are there; keep appending.
    store = FileWalStore(str(path))
    assert [r.lsn for r in store.records_since(0)] == [1, 2, 3]
    for record in written[3:]:
        store.append(record)
    store.sync()
    store.close()

    raw = (path.parent / "wal.log").read_bytes()
    assert _frame_first_bytes(raw) == [WAL_MAGIC] * len(pattern)
    assert decode_log(raw) == written
    store = FileWalStore(str(path))
    assert store.records_since(0) == written
    assert store.last_lsn == 6
    store.close()


def test_recovery_reads_and_checksums_the_log_once(tmp_path, monkeypatch):
    """The load validates the log; the replay that follows decodes that
    same buffer instead of reading and checksumming the file again.  A
    later read, or one after the log grew, goes back to the file."""
    path = tmp_path / "wal"
    store = FileWalStore(str(path))
    for record in _records(3):
        store.append(record)
    store.close()
    reads, checks = [], []
    real_open, real_crc = open, wal_module.crc32

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file).endswith(".log") and "r" in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(wal_module, "open", counting_open, raising=False)
    monkeypatch.setattr(wal_module, "crc32",
                        lambda data: checks.append(1) or real_crc(data))
    store = FileWalStore(str(path))
    assert [tuple(ops) for ops in store.replay(0)] == [
        r.ops for r in _records(3)]
    assert (len(reads), len(checks)) == (1, 3)
    assert [r.lsn for r in store.records_since(1)] == [2, 3]
    assert (len(reads), len(checks)) == (2, 6)
    store = FileWalStore(str(path))
    store.append(_record(4))
    assert [r.lsn for r in store.records_since(0)] == [1, 2, 3, 4]
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


@pytest.mark.parametrize("retired", [False, True])
def test_torn_tail_is_dropped(tmp_path, retired):
    """The last frame cut mid-write — or, ``retired``, a whole ``0xC6``
    frame where the last frame should start: nothing valid follows
    either, so both are a tail to drop."""
    path = tmp_path / "wal"
    store = FileWalStore(str(path))
    for record in _records(3):
        store.append(record)
    store.sync()
    store.close()
    log = path.parent / "wal.log"
    raw = log.read_bytes()
    if retired:
        log.write_bytes(raw[:_frame_offsets(raw)[2]] + _retired_frame(3))
    else:
        log.write_bytes(raw[:-3])           # crash mid-write of last frame
    store = FileWalStore(str(path))
    assert [r.lsn for r in store.records_since(0)] == [1, 2]
    # The tear is cut off, so what is appended next is not hidden behind
    # it at the following load.
    store.append(_record(3))
    store.close()
    store = FileWalStore(str(path))
    assert [r.lsn for r in store.records_since(0)] == [1, 2, 3]
    store.close()


def test_retired_record_kind_mid_log_is_corruption(tmp_path):
    """A ``0xC6`` byte at a frame boundary with a valid frame after it is
    damage in place: the error names the offset and the last good LSN."""
    path = tmp_path / "wal"
    store = FileWalStore(str(path))
    for record in _records(3):
        store.append(record)
    store.close()
    log = path.parent / "wal.log"
    raw = log.read_bytes()
    offsets = _frame_offsets(raw)
    damaged = raw[:offsets[1]] + _retired_frame(2) + raw[offsets[2]:]
    for case in (damaged,
                 # ... or just the magic byte of an otherwise intact frame
                 raw[:offsets[1]] + bytes([RETIRED_MAGIC])
                 + raw[offsets[1] + 1:]):
        with pytest.raises(WalCorruptionError) as caught:
            decode_log(case)
        assert caught.value.offset == offsets[1]
        assert caught.value.last_good_lsn == 1
    log.write_bytes(damaged)
    with pytest.raises(WalCorruptionError):
        FileWalStore(str(path))


def _flip(raw, at):
    damaged = bytearray(raw)
    damaged[at] ^= 0x40
    return bytes(damaged)


def _five_frame_log(tmp_path):
    """A closed log of five records (the fourth a multi-op one)."""
    path = tmp_path / "wal"
    store = FileWalStore(str(path))
    for lsn in range(1, 6):
        store.append(_record(lsn, batch=(lsn == 4)))
    store.close()
    return path, path.parent / "wal.log"


@pytest.mark.parametrize("where", ["magic", "length", "checksum", "body"])
@pytest.mark.parametrize("frame", [0, 2, 3])
def test_damage_in_the_middle_of_the_log_raises(tmp_path, frame, where):
    """A flipped bit in a frame that has valid frames after it must stop
    recovery, not silently drop every later committed record — whichever
    part of the frame it hits (a damaged length can point past EOF, which
    alone would look like a torn tail)."""
    path, log = _five_frame_log(tmp_path)
    raw = log.read_bytes()
    start = _frame_offsets(raw)[frame]
    at = start + {"magic": 0, "length": 3, "checksum": 6, "body": 20}[where]
    log.write_bytes(_flip(raw, at))
    with pytest.raises(WalCorruptionError) as caught:
        FileWalStore(str(path))
    assert caught.value.offset == start
    assert caught.value.last_good_lsn == (frame or None)
    with pytest.raises(WalCorruptionError):
        decode_log(_flip(raw, at))


@pytest.mark.parametrize("damage", ["flip", "cut"])
def test_damage_in_the_final_frame_is_a_torn_tail(tmp_path, damage):
    path, log = _five_frame_log(tmp_path)
    raw = log.read_bytes()
    start, end = _frame_offsets(raw)[-2:]
    for at in range(start, end):
        torn = _flip(raw, at) if damage == "flip" else raw[:at]
        assert [r.lsn for r in decode_log(torn)] == [1, 2, 3, 4]
    log.write_bytes(_flip(raw, end - 1))
    store = FileWalStore(str(path))
    assert store.last_lsn == 4
    assert os.path.getsize(log) == start       # the tear is cut off
    store.close()


def test_lsn_gap_raises(tmp_path):
    """Dense LSNs make a lost frame visible even when what is left
    checksums: a removed middle frame is corruption, not a short log."""
    path, log = _five_frame_log(tmp_path)
    raw = log.read_bytes()
    offsets = _frame_offsets(raw)
    log.write_bytes(raw[:offsets[2]] + raw[offsets[3]:])
    with pytest.raises(WalCorruptionError) as caught:
        FileWalStore(str(path))
    assert caught.value.last_good_lsn == 2
    # ... and so is a log that starts past where its checkpoint ends.
    log.write_bytes(raw[offsets[2]:])
    with pytest.raises(WalCorruptionError):
        FileWalStore(str(path))


def test_damaged_checkpoint_raises(runtime, tmp_path):
    """A checkpoint is replaced atomically and never torn: any damage to
    it stops the store load and the recovery, wherever the bytes sit."""
    path = str(tmp_path / "wal")
    store = FileWalStore(path)
    space = DurableSpace(runtime, wal=WriteAheadLog(store),
                         snapshot_every=None)

    def before():
        for i in range(5):
            space.write(TaskEntry("app", i, f"p{i}"))
        space.checkpoint()

    run(runtime, before)
    store.close()
    good = open(path + ".snap", "rb").read()
    assert decode_checkpoint(good)[0] == 5
    for at in (0, 3, 6, 12, len(good) // 2, len(good) - 1):
        with open(path + ".snap", "wb") as fh:
            fh.write(_flip(good, at))
        with pytest.raises(WalCorruptionError):
            FileWalStore(path)
        # The same bytes in an in-memory store (a standby's bootstrap, a
        # simulated disk) fail at recovery.
        survivor = WalStore()
        survivor.snapshot, survivor.snapshot_lsn = _flip(good, at), 5
        with pytest.raises(WalCorruptionError):
            DurableSpace.recover(runtime, survivor)
    with open(path + ".snap", "wb") as fh:
        fh.write(good[:-1])
    with pytest.raises(WalCorruptionError):
        FileWalStore(path)


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
    """Two entry classes share one space: their frames — one kind, two
    schemas — interleave in the log, are partially consumed, and are all
    there after a crash + recover — and new writes of both keep working."""
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

    # Both classes' frames really are on disk, embedded verbatim, in the
    # one record kind.
    raw = open(path + ".log", "rb").read()
    assert set(_frame_first_bytes(raw)) == {WAL_MAGIC}
    datas = [op[2] for record in decode_log(raw) for op in record.ops
             if op[0] == "write"]
    assert [d[0] for d in datas] == [MAGIC] * 6
    assert [peek_class(d) for d in datas] == [TaskEntry, Note] * 3

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
    Note("defined in this module"),
], ids=["compact", "defined-here"])
def test_recovery_round_trips_entry_frames(runtime, tmp_path, entry):
    """Entry payload bytes inside WAL ops are themselves codec frames;
    a store must replay them bit-exactly, whichever class they are."""
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
