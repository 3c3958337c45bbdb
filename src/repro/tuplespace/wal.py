"""Write-ahead log for the durable tuple space.

The unit of durability is the :class:`CommitRecord`: an atomic batch of
``("write", entry_id, data, expiration_ms)`` / ``("take", entry_id)``
operations appended exactly when they become *committed* state — a bare
``write`` logs one record, a transaction logs a single record with its
whole net effect at commit.  Operations of a transaction that never
commits are never logged, which is what makes recovery roll open
transactions back for free.

Storage sits behind :class:`WalStore` so "the disk" can be whatever
survives the failure being modelled: the in-memory store survives a
``SpaceServer.crash()`` plus the loss of the space object (machine loss
in the simulation) and *is* the simulated disk, so it keeps the whole
record tail as a list; :class:`FileWalStore` puts the same bytes on a
real filesystem, holds only the commit group it has not written yet, and
decodes the log file on demand.  A *checkpoint* — the committed store as
one checksummed frame of write ops — bounds replay: installing one
truncates every record it covers.  Checkpoint and log share one frame
envelope and one op layout, so recovery is a single "decode frame →
apply ops" pass over both (see :func:`decode_checkpoint`,
:func:`iter_log`).

Frames (little-endian)
----------------------
Both frames — commit record, checkpoint — ride one envelope::

    magic u8 · body_len u32 · crc32(body) u32 · body

    0xC5 record      body = lsn i64 · epoch i64 · nops u32 · op*
    0xC7 checkpoint  body = lsn i64 · last_id i64 · count u32 · op_write*

    op_write:  'W'  entry_id i64  exp f64  data_len u32  data
               'w'  entry_id i64  exp i64  data_len u32  data
    op_take:   't'  entry_id i64

The two write tags keep integer expirations round-tripping as ints
while the common float case — absolute virtual time, ``math.inf`` for
FOREVER — packs in one struct call.  Entry ``data`` bytes are spliced in
verbatim: whatever the entry codec produced is what hits the disk.  The
space only journals what fits — ids from its own i64 counter, ``bytes``
frames it checked at the door, its own lease deadlines — so an op that
does not fit the layout is a bug upstream and raises
:class:`SpaceError`; there is no second record kind to absorb it.

Torn tail vs corruption: frames are appended sequentially, so a crash
mid-write can only damage the *end* of the log.  An invalid frame
(unknown magic, extent past EOF, bad checksum) with no valid frame
anywhere after it is a torn tail and is dropped; an invalid frame that
*is* followed by a valid one, a frame that checksums but does not
decode, or a gap in the dense LSN sequence means committed records were
damaged in place, and reading raises :class:`WalCorruptionError` rather
than silently dropping everything after it.  A checkpoint file is
replaced atomically and is never torn: any damage to it raises.

Group commit & fsync policy
---------------------------
Every store takes an ``fsync_policy``:

* ``"always"`` (default) — each appended record is persisted *and*
  fsynced before the append returns.  An acknowledged commit survives
  power loss; every commit pays one durability barrier.
* ``"group"`` — records buffer and are persisted+fsynced together when
  the group reaches ``group_size`` records (or when the owning
  :class:`WriteAheadLog`'s ``group_ms`` time watermark fires, or on an
  explicit :meth:`WalStore.sync`).  One barrier amortizes over the whole
  group, multiplying commit throughput — the tradeoff is that commits
  acknowledged after the last barrier can vanish on *power loss*.
* ``"os"`` — persist to the OS (write+flush) per record, never fsync.
  Fast, survives process crashes, loses the tail since the last explicit
  barrier on power loss.

Checkpoint compaction is crash-safe: pending records are synced, the new
checkpoint is written to a temp file, fsynced, atomically renamed into
place and the directory fsynced *before* the log is truncated (itself
via temp-write → fsync → rename → directory fsync).  A crash at any
point leaves either the old checkpoint with the full log or the new
checkpoint with a (possibly still-full) log — both recover to the same
committed state, since replay skips records at or below the checkpoint
LSN; a ``*.tmp`` left behind is deleted at the next load.

The log is also the replication feed: a hot standby subscribes and
receives every appended record in commit order (see
:mod:`repro.tuplespace.durable`).  Replication is independent of the
fsync policy — records ship as they commit, not as they hit the disk.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional
from zlib import crc32

from repro.errors import SpaceError, WalCorruptionError
from repro.telemetry.trace import Tracer

__all__ = ["CommitRecord", "WalStore", "FileWalStore", "WriteAheadLog",
           "record_frame", "frame_size", "iter_log", "decode_log",
           "encode_checkpoint", "checkpoint_head", "decode_checkpoint",
           "WAL_MAGIC", "CHECKPOINT_MAGIC",
           "OP_WRITE", "OP_TAKE", "FSYNC_POLICIES"]

OP_WRITE = "write"
OP_TAKE = "take"

#: Valid values for the ``fsync_policy`` knob, strongest first.
FSYNC_POLICIES = ("always", "group", "os")


@dataclass(frozen=True)
class CommitRecord:
    """One atomic batch of committed operations.

    ``ops`` is a tuple of ``(OP_WRITE, entry_id, data, expiration_ms)``
    and ``(OP_TAKE, entry_id)`` tuples; ``expiration_ms`` is *absolute*
    virtual time (``math.inf`` for FOREVER) so replay reconstructs the
    remaining lease instead of restarting it.
    """

    lsn: int
    ops: tuple[tuple, ...]
    #: Primary epoch under which the batch committed.  Monotonically
    #: non-decreasing along the log; a promoted standby bumps it before
    #: serving, which fences the deposed primary (see ``failover.py``).
    epoch: int = 0


# ------------------------------------------------------------------ frames --

#: First byte of a commit-record frame.  Distinct from the entry codec's
#: ``0xC3`` (entry frames sit inside WAL frames).
WAL_MAGIC = 0xC5
#: First byte of a checkpoint (the whole ``.snap`` file is one frame).
CHECKPOINT_MAGIC = 0xC7

_ENVELOPE = struct.Struct("<BII")        # magic, body_len, crc32(body)
_HEAD = struct.Struct("<qqI")            # lsn, epoch | last_id, nops
_W_FLOAT = struct.Struct("<cqdI")        # 'W', entry_id, exp, data_len
_W_INT = struct.Struct("<cqqI")          # 'w'
_TAKE = struct.Struct("<cq")             # 't', entry_id
#: Whole body head of the dominant record shape — one float-expiry
#: write op — packed in a single struct call.
_ONE_WRITE = struct.Struct("<qqIcqdI")
_unpack_w_float = struct.Struct("<qdI").unpack_from
_unpack_w_int = struct.Struct("<qqI").unpack_from
_unpack_i64 = struct.Struct("<q").unpack_from
_RECORD_MAGIC = re.compile(bytes([WAL_MAGIC]))

_ENVELOPE_SIZE = _ENVELOPE.size           # 9
_HEAD_SIZE = _HEAD.size                   # 20
_WRITE_HEAD = _W_FLOAT.size               # 21, either write tag
_TAKE_SIZE = _TAKE.size                   # 9

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: What a malformed body raises while being picked apart.
_MALFORMED = (struct.error, IndexError, ValueError, TypeError)


def _frame(magic: int, body: bytes) -> bytes:
    return _ENVELOPE.pack(magic, len(body), crc32(body)) + body


def _misfit(op: tuple) -> SpaceError:
    return SpaceError(
        f"{op[0]!r} op of entry {op[1]!r} does not fit the WAL op layout")


def _encode_ops(ops: Iterable[tuple]) -> list[bytes]:
    """The op-layout pieces for ``ops``; :class:`SpaceError` for an op
    that does not fit (unknown kind, non-bytes payload, oversized id or
    expiration)."""
    parts: list[bytes] = []
    append = parts.append
    for op in ops:
        kind = op[0]
        if kind == OP_WRITE and len(op) == 4:
            _, entry_id, data, exp = op
            if data.__class__ is not bytes or not (
                    _I64_MIN <= entry_id <= _I64_MAX):
                raise _misfit(op)
            if exp.__class__ is float:
                append(_W_FLOAT.pack(b"W", entry_id, exp, len(data)))
            elif exp.__class__ is int and _I64_MIN <= exp <= _I64_MAX:
                append(_W_INT.pack(b"w", entry_id, exp, len(data)))
            else:
                raise _misfit(op)
            append(data)
        elif kind == OP_TAKE and len(op) == 2 and (
                _I64_MIN <= op[1] <= _I64_MAX):
            append(_TAKE.pack(b"t", op[1]))
        else:
            raise _misfit(op)
    return parts


def frame_size(ops: tuple[tuple, ...]) -> int:
    """Bytes a record carrying ``ops`` adds to the log in the compact
    layout — what the checkpoint trigger weighs the tail by.  Computed
    from the op shapes, so the in-memory store (which never encodes a
    frame) and the file store agree."""
    size = _ENVELOPE_SIZE + _HEAD_SIZE
    for op in ops:
        size += _WRITE_HEAD + len(op[2]) if op[0] == OP_WRITE else _TAKE_SIZE
    return size


def record_frame(record: CommitRecord) -> bytes:
    """The on-disk frame for ``record``, encoded once and cached.

    Group commit concatenates cached frames instead of re-serializing
    the batch.  Raises :class:`SpaceError` for a record whose ops do not
    fit the op layout, as :func:`encode_checkpoint` does.
    """
    frame = record.__dict__.get("_frame")
    if frame is not None:
        return frame
    ops = record.ops
    body = None
    if len(ops) == 1 and len(ops[0]) == 4 and ops[0][0] == OP_WRITE:
        _, entry_id, data, exp = ops[0]
        if (data.__class__ is bytes and exp.__class__ is float
                and _I64_MIN <= entry_id <= _I64_MAX):
            body = _ONE_WRITE.pack(record.lsn, record.epoch, 1, b"W",
                                   entry_id, exp, len(data)) + data
    if body is None:
        body = _HEAD.pack(record.lsn, record.epoch,
                          len(ops)) + b"".join(_encode_ops(ops))
    frame = _frame(WAL_MAGIC, body)
    # Frozen dataclass: the cache slot is set through the back door and
    # excluded from equality/hash (instances compare by declared fields).
    object.__setattr__(record, "_frame", frame)
    return frame


def _decode_ops(raw: bytes, pos: int, end: int, nops: int) -> list[tuple]:
    """Parse ``nops`` ops filling ``raw[pos:end]`` exactly; raises one of
    ``_MALFORMED`` otherwise."""
    ops: list[tuple] = []
    append = ops.append
    for _ in range(nops):
        kind = raw[pos]
        if kind == 0x57 or kind == 0x77:  # W (float exp) / w (int exp)
            if kind == 0x57:
                entry_id, exp, n = _unpack_w_float(raw, pos + 1)
            else:
                entry_id, exp, n = _unpack_w_int(raw, pos + 1)
            pos += _WRITE_HEAD
            stop = pos + n
            if stop > end:
                raise ValueError("op payload runs past its frame")
            append((OP_WRITE, entry_id, raw[pos:stop], exp))
            pos = stop
        elif kind == 0x74:  # t
            append((OP_TAKE, _unpack_i64(raw, pos + 1)[0]))
            pos += _TAKE_SIZE
        else:
            raise ValueError(f"unknown op tag {kind:#x}")
    if pos != end:
        raise ValueError("frame longer than its ops")
    return ops


def _valid_record_after(raw: bytes, view: memoryview, pos: int) -> bool:
    """True when a checksummed record frame starts anywhere in
    ``raw[pos:]`` — what tells damage in the middle of the log from a
    torn tail, which by construction has nothing valid after it."""
    size = len(raw)
    for match in _RECORD_MAGIC.finditer(raw, pos):
        at = match.start()
        start = at + _ENVELOPE_SIZE
        if start > size:
            break
        _, length, crc = _ENVELOPE.unpack_from(raw, at)
        end = start + length
        if (length >= _HEAD_SIZE and end <= size
                and crc32(view[start:end]) == crc):
            return True
    return False


def iter_log(raw: bytes, decode: bool = True, verify: bool = True,
             ) -> Iterator[tuple[int, int, Any, int]]:
    """Stream the record frames of a log buffer as
    ``(lsn, epoch, ops, end_offset)``, checksumming each.

    Stops silently at a torn tail (the caller learns where from the last
    ``end_offset``) and raises :class:`WalCorruptionError` for damage in
    place — see the module docstring for the rule.  ``decode=False``
    validates without materializing ops (``ops`` is None): what a store
    needs to learn its last LSN at load.  ``verify=False`` skips the
    checksums, for a buffer an earlier pass already validated.
    """
    view = memoryview(raw)
    size = len(raw)
    unpack_envelope = _ENVELOPE.unpack_from
    unpack_head = _HEAD.unpack_from
    pos = 0
    last_lsn: Optional[int] = None
    while pos < size:
        start = pos + _ENVELOPE_SIZE
        end = -1
        if start <= size:
            magic, length, crc = unpack_envelope(raw, pos)
            end = start + length
        if (end < 0 or end > size or magic != WAL_MAGIC
                or (verify and crc32(view[start:end]) != crc)):
            if _valid_record_after(raw, view, pos + 1):
                raise WalCorruptionError(
                    "invalid frame followed by valid ones", pos, last_lsn)
            return  # torn tail
        try:
            ops = None
            lsn, epoch, nops = unpack_head(raw, start)
            if decode:
                ops = _decode_ops(raw, start + _HEAD_SIZE, end, nops)
        except _MALFORMED as exc:
            raise WalCorruptionError(
                f"checksummed frame does not decode ({exc})", pos,
                last_lsn) from exc
        if last_lsn is not None and lsn != last_lsn + 1:
            raise WalCorruptionError(
                f"LSN gap: {lsn} follows {last_lsn}", pos, last_lsn)
        last_lsn = lsn
        pos = end
        yield lsn, epoch, ops, end


def decode_log(raw: bytes) -> list[CommitRecord]:
    """Decode a log buffer into records (torn tail dropped, corruption
    raised: see :func:`iter_log`)."""
    return [CommitRecord(lsn, tuple(ops), epoch)
            for lsn, epoch, ops, _ in iter_log(raw)]


# -------------------------------------------------------------- checkpoints --


def encode_checkpoint(lsn: int, last_id: int, ops: list[tuple]) -> bytes:
    """The checkpoint frame for a committed store: the write ops that
    recreate it (``(OP_WRITE, entry_id, data, expiration_ms)``, each
    entry's stored frame spliced in verbatim) behind one header.

    ``lsn`` is the last commit the state includes; ``last_id`` the
    highest entry id ever issued, so recovered ids never collide.
    """
    parts = _encode_ops(ops)
    parts.insert(0, _HEAD.pack(lsn, last_id, len(ops)))
    return _frame(CHECKPOINT_MAGIC, b"".join(parts))


def checkpoint_head(state: bytes) -> tuple[int, int, int]:
    """``(lsn, last_id, count)`` of a checkpoint, after checking its
    envelope and checksum.  A checkpoint is written atomically, so any
    mismatch is corruption (:class:`WalCorruptionError`), never a tear."""
    start = _ENVELOPE_SIZE
    try:
        magic, length, crc = _ENVELOPE.unpack_from(state, 0)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint (magic {magic:#x})")
        if start + length != len(state):
            raise ValueError("length field disagrees with the buffer")
        if crc32(memoryview(state)[start:]) != crc:
            raise ValueError("bad checksum")
        return _HEAD.unpack_from(state, start)
    except _MALFORMED as exc:
        raise WalCorruptionError(f"checkpoint: {exc}", 0, None) from exc


def decode_checkpoint(state: bytes) -> tuple[int, int, list[tuple]]:
    """``(lsn, last_id, ops)`` of a checkpoint — the same op tuples log
    replay yields, so one apply path serves both."""
    lsn, last_id, count = checkpoint_head(state)
    try:
        ops = _decode_ops(state, _ENVELOPE_SIZE + _HEAD_SIZE, len(state),
                          count)
    except _MALFORMED as exc:
        raise WalCorruptionError(
            f"checkpoint: checksummed frame does not decode ({exc})", 0,
            None) from exc
    return lsn, last_id, ops


# ------------------------------------------------------------------- stores --


class WalStore:
    """In-memory durable medium: a checkpoint slot plus the record tail.

    The object models the disk — hand the *same store* to a recovering
    space after discarding the crashed one and the committed state comes
    back (that models a process/machine crash, which preserves the OS
    page cache).  :meth:`power_loss` models losing power as well: every
    record past the last durability barrier is discarded, which is
    exactly what the ``group`` and ``os`` policies risk.

    Subclasses persist the same structure elsewhere.
    """

    def __init__(self, fsync_policy: str = "always",
                 group_size: int = 64) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise SpaceError(
                f"unknown fsync_policy {fsync_policy!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        if group_size < 1:
            raise SpaceError(f"group_size must be >= 1: {group_size}")
        self.fsync_policy = fsync_policy
        self.group_size = group_size
        #: Latest checkpoint (:func:`encode_checkpoint` bytes), the LSN
        #: it covers and its size; ``None`` / 0 / 0 until the first one.
        self.snapshot: Optional[bytes] = None
        self.snapshot_lsn = 0
        self.state_bytes = 0
        #: Highest primary epoch this store has durably observed.  It is
        #: replayed on recovery so a restarted primary knows whether it
        #: has been superseded while down.
        self.epoch = 0
        #: The records this object holds in memory.  Here that is the
        #: whole tail since the checkpoint (the list *is* the disk);
        #: :class:`FileWalStore` holds only the group not yet written.
        self.records: list[CommitRecord] = []
        #: Records appended since the last durability barrier.
        self._unsynced = 0
        #: Durability barriers issued (fsyncs, for the file store).
        self.syncs = 0
        #: Checkpoints installed through this object.
        self.checkpoints = 0
        #: Size of the tail since the checkpoint in compact-frame bytes
        #: (:func:`frame_size`): what the durable space weighs against
        #: ``state_bytes`` to decide a checkpoint.
        self.tail_bytes = 0
        #: The newest LSN stored (the checkpoint's when the tail is
        #: empty): a plain attribute, as LSN assignment on every append
        #: and a replicated server's reply gate on every request read it.
        self.last_lsn = 0

    # -- appending ----------------------------------------------------------

    def set_epoch(self, epoch: int) -> None:
        """Adopt ``epoch`` if it is newer; epochs never move backwards."""
        if epoch > self.epoch:
            self.epoch = epoch
            self._persist_epoch()

    def _persist_epoch(self) -> None:
        """Make the epoch durable (overridden by :class:`FileWalStore`)."""

    def append(self, record: CommitRecord) -> None:
        if record.epoch > self.epoch:
            self.set_epoch(record.epoch)
        self.records.append(record)
        if record.lsn > self.last_lsn:
            self.last_lsn = record.lsn
        self.tail_bytes += frame_size(record.ops)
        self._unsynced += 1
        if self.fsync_policy == "group":
            if self._unsynced >= self.group_size:
                self.sync()
        else:
            self._persist()
            if self.fsync_policy == "always":
                self._unsynced = 0
                self._fsync()

    def pending(self) -> int:
        """Records appended but not yet behind a durability barrier."""
        return self._unsynced

    def sync(self) -> None:
        """Durability barrier: persist and fsync everything pending."""
        self._persist()
        self._unsynced = 0
        self._fsync()

    # -- persistence hooks (overridden by FileWalStore) ----------------------

    def _persist(self) -> None:
        """Hand the records not yet written to the medium (OS write;
        in-memory: no-op, the list is the medium)."""

    def _fsync(self) -> None:
        self.syncs += 1

    # -- failure modelling ----------------------------------------------------

    def power_loss(self) -> int:
        """Discard every record not behind a durability barrier.

        Models power loss (as opposed to a process crash, which this
        object survives wholesale).  Returns how many acknowledged
        commits vanished — 0 under ``fsync_policy="always"``.
        """
        lost = self._unsynced
        if lost:
            del self.records[-lost:]
        self._unsynced = 0
        self._recount(self.records)
        return lost

    def _recount(self, tail: list[CommitRecord]) -> None:
        """Re-derive the cached tail figures after the tail was cut."""
        self.last_lsn = tail[-1].lsn if tail else self.snapshot_lsn
        self.tail_bytes = sum(frame_size(r.ops) for r in tail)

    # -- checkpointing --------------------------------------------------------

    def install_snapshot(self, lsn: int, state: bytes) -> None:
        """Persist checkpoint ``state`` covering everything up to ``lsn``
        and drop the records it makes redundant.  Acts as a durability
        barrier: pending records are synced first, and the checkpoint is
        durable before the log loses anything."""
        if checkpoint_head(state)[0] != lsn:
            raise SpaceError(f"checkpoint does not end at lsn {lsn}")
        self.sync()
        tail = self.records_since(lsn) if lsn < self.last_lsn else []
        self._replace(state, tail)
        self._adopt(state, lsn)
        self.checkpoints += 1
        self._recount(tail)

    def _replace(self, state: bytes, tail: list[CommitRecord]) -> None:
        """Swap in the checkpoint and cut the log down to ``tail``."""
        self.records = tail

    def _adopt(self, state: bytes, lsn: int) -> None:
        self.snapshot = state
        self.snapshot_lsn = lsn
        self.state_bytes = len(state)

    # -- reading ---------------------------------------------------------------

    @property
    def tail_records(self) -> int:
        """Records past the checkpoint (LSNs are dense)."""
        return self.last_lsn - self.snapshot_lsn

    def records_since(self, lsn: int) -> list[CommitRecord]:
        """Every stored record with an LSN strictly greater than ``lsn``."""
        return [r for r in self.records if r.lsn > lsn]

    def replay(self, lsn: int) -> Iterator[tuple]:
        """The ``ops`` of every record past ``lsn``, in commit order —
        the recovery stream (no :class:`CommitRecord` is built for it)."""
        return (r.ops for r in self.records if r.lsn > lsn)


class FileWalStore(WalStore):
    """File-backed store: a checkpoint file and a framed log file.

    Layout: ``<path>.snap`` is one checkpoint frame, ``<path>.log``
    consecutive record frames (module docstring), ``<path>.epoch`` the
    fencing epoch.  The WAL contract under the default
    ``fsync_policy="always"`` is that an acknowledged commit survives
    power loss — each append is written, flushed *and fsynced*.  See the
    module docstring for what ``group`` and ``os`` trade away.

    The tail lives on the disk, not in RAM: ``records`` holds only the
    commit group not yet written, and :meth:`records_since` /
    :meth:`replay` decode the log file when asked — the first of them
    after a load from the buffer the load already read and checksummed.
    """

    def __init__(self, path, fsync_policy: str = "always",
                 group_size: int = 64, codec: str = "compact") -> None:
        if codec != "compact":  # keyword kept for benchmarks/suite/adapter.py
            raise SpaceError(f"unknown codec {codec!r}; expected 'compact'")
        super().__init__(fsync_policy=fsync_policy, group_size=group_size)
        path = os.fspath(path)
        self._dir = os.path.dirname(path) or "."
        self._snap_path = path + ".snap"
        self._log_path = path + ".log"
        self._epoch_path = path + ".epoch"
        new = not os.path.exists(self._log_path)
        self._load()
        self._log_fh = open(self._log_path, "ab")
        if new:
            self._fsync_dir()  # the log's directory entry must survive too

    def _persist_epoch(self) -> None:
        # The epoch is a promise never to accept older writes, so it must
        # be durable *before* any commit made under it — atomic replace
        # keeps a crash from leaving a torn value.
        self._write_atomic(self._epoch_path,
                           str(self.epoch).encode("ascii"))

    def _load(self) -> None:
        """Read the epoch and checkpoint, validate the log and cut off a
        torn tail.  Raises :class:`WalCorruptionError` for anything worse
        than a tear."""
        for path in (self._snap_path, self._log_path, self._epoch_path):
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")  # a crash mid-replace; never live
        if os.path.exists(self._epoch_path):
            with open(self._epoch_path, "rb") as fh:
                self.epoch = int(fh.read().decode("ascii") or "0")
        if os.path.exists(self._snap_path):
            with open(self._snap_path, "rb") as fh:
                state = fh.read()
            self._adopt(state, checkpoint_head(state)[0])
        raw = b""
        if os.path.exists(self._log_path):
            with open(self._log_path, "rb") as fh:
                raw = fh.read()
        base = last = self.snapshot_lsn
        good = covered = 0
        for lsn, epoch, _, end in iter_log(raw, decode=False):
            if good == 0 and lsn > base + 1:
                raise WalCorruptionError(
                    f"LSN gap: log starts at {lsn}, checkpoint ends at "
                    f"{base}", 0, base)
            # The sidecar is written before any commit under its epoch;
            # a log that outlived its sidecar still carries the value.
            if epoch > self.epoch:
                self.epoch = epoch
            if lsn > base:
                last = lsn
            else:
                covered = end  # survived a crash mid-compaction
            good = end
        if good < len(raw):
            with open(self._log_path, "r+b") as fh:
                fh.truncate(good)  # or later appends would hide behind it
                os.fsync(fh.fileno())
            raw = raw[:good]
        #: The log as validated here, kept for the first read of the tail
        #: (recovery's replay) so it is not read and checksummed twice.
        self._loaded: Optional[bytes] = raw
        self.last_lsn = last
        self.tail_bytes = good - covered
        #: Log file size, and how much of it is behind an fsync.
        self._log_size = self._synced_size = good

    def _persist(self) -> None:
        # One write per group: frames were (or are now) encoded exactly
        # once each, so a group commit is a concatenation, not a
        # re-serialization of the batch.
        records = self.records
        if not records:
            return
        if len(records) == 1:
            payload = record_frame(records[0])
        else:
            payload = b"".join(map(record_frame, records))
        self._log_fh.write(payload)
        self._log_fh.flush()
        self._log_size += len(payload)
        records.clear()

    def _fsync(self) -> None:
        super()._fsync()
        os.fsync(self._log_fh.fileno())
        self._synced_size = self._log_size

    def _fsync_dir(self) -> None:
        """Make a create/rename in the store's directory durable."""
        fd = os.open(self._dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _write_atomic(self, path: str, payload: bytes) -> None:
        """temp-write → fsync → rename → directory fsync: the file at
        ``path`` is either the old complete version or the new complete
        version, never a torn intermediate, and the rename itself
        survives power loss."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_dir()

    def _replace(self, state: bytes, tail: list[CommitRecord]) -> None:
        # Crash-safe compaction order: (1) pending records hit the disk
        # (install_snapshot synced them), (2) the new checkpoint becomes
        # durable atomically, (3) only then is the log cut (also
        # atomically).  A crash between any two steps recovers correctly
        # — replay skips records at or below the checkpoint LSN.
        self._write_atomic(self._snap_path, state)
        self._log_fh.close()
        self._loaded = None
        payload = b"".join(map(record_frame, tail))
        self._write_atomic(self._log_path, payload)
        self._log_fh = open(self._log_path, "ab")
        self._log_size = self._synced_size = len(payload)

    def power_loss(self) -> int:
        lost = self._unsynced
        self.records.clear()
        self._unsynced = 0
        self._log_fh.close()
        os.truncate(self._log_path, self._synced_size)
        self._load()
        self._log_fh = open(self._log_path, "ab")
        return lost

    def _tail(self) -> Iterator[tuple[int, int, Any]]:
        """``(lsn, epoch, ops)`` of every record: the file, then the
        group still in memory.  The first read after a load decodes the
        buffer the load validated, unless the log has grown since."""
        raw, self._loaded = self._loaded, None
        verify = raw is None or len(raw) != self._log_size
        if verify:
            with open(self._log_path, "rb") as fh:
                raw = fh.read()
        for lsn, epoch, ops, _ in iter_log(raw, verify=verify):
            yield lsn, epoch, ops
        for record in self.records:
            yield record.lsn, record.epoch, record.ops

    def records_since(self, lsn: int) -> list[CommitRecord]:
        return [CommitRecord(at, tuple(ops), epoch)
                for at, epoch, ops in self._tail() if at > lsn]

    def replay(self, lsn: int) -> Iterator[tuple]:
        return (ops for at, _, ops in self._tail() if at > lsn)

    def close(self) -> None:
        self.sync()
        self._log_fh.close()


class WriteAheadLog:
    """Commit-ordered log with checkpoint truncation and live subscribers.

    ``append`` assigns the next LSN; ``import_record`` preserves the LSN
    of a record replicated from a primary, so a promoted standby's log
    lines up with the stream it tailed.  Subscribers (replication
    channels) are invoked synchronously in commit order.

    With ``group_ms`` and a runtime bound, a *time watermark* backs the
    store's size watermark under ``fsync_policy="group"``: the first
    record to buffer arms a one-shot flush ``group_ms`` later, so a lull
    in traffic can delay durability by at most that long.
    """

    def __init__(self, store: Optional[WalStore] = None,
                 group_ms: Optional[float] = None) -> None:
        self.store = store if store is not None else WalStore()
        self.group_ms = group_ms
        self._runtime: Any = None
        self._flush_armed = False
        self._subscribers: list[Callable[[CommitRecord], None]] = []
        #: Telemetry tracer; when enabled, each commit/sync drops an
        #: instant marker under the ``"wal"`` trace, tagged ``shard`` and
        #: ``space``.  The framework sets all three (:meth:`trace_into`);
        #: the log's own tracer is disabled and bound to no runtime.
        self.tracer: Any = Tracer(None)
        self.shard = self.space = ""

    def trace_into(self, tracer: Any, shard: str, space: str) -> None:
        """Trace this log's commits, barriers and checkpoints into
        ``tracer``, each instant tagged with its ``shard`` and ``space``
        (the address its space serves at), so a reader can tell a
        shard's serving log from its replicas."""
        self.tracer = tracer
        self.shard = shard
        self.space = space

    def bind(self, runtime: Any) -> None:
        """Bind the runtime that drives the time watermark (the first
        one sticks)."""
        if self._runtime is None:
            self._runtime = runtime

    # -- writing ------------------------------------------------------------

    def append(self, ops: tuple[tuple, ...]) -> CommitRecord:
        store = self.store
        record = CommitRecord(store.last_lsn + 1, tuple(ops), store.epoch)
        store.append(record)
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("wal.commit", trace_id="wal", proc="wal",
                           shard=self.shard, space=self.space,
                           lsn=record.lsn, ops=len(record.ops))
        if self._subscribers:
            self._notify(record)
        if self.group_ms is not None:
            self._arm_flush()
        return record

    def import_record(self, record: CommitRecord) -> None:
        """Adopt a replicated record verbatim (standby tail path)."""
        if record.lsn <= self.store.last_lsn:
            raise SpaceError(
                f"stale replicated record lsn={record.lsn} "
                f"(log is at {self.store.last_lsn})"
            )
        self.store.append(record)
        self._notify(record)
        self._arm_flush()

    def install_snapshot(self, lsn: int, state: bytes) -> None:
        self.store.install_snapshot(lsn, state)

    def sync(self) -> None:
        """Durability barrier: flush any buffered group to the medium."""
        self.store.sync()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("wal.sync", trace_id="wal", proc="wal",
                           shard=self.shard, space=self.space,
                           lsn=self.store.last_lsn)

    def _arm_flush(self) -> None:
        if (self._runtime is None or self.group_ms is None
                or self._flush_armed or self.store.pending() == 0):
            return
        self._flush_armed = True
        self._runtime.call_later(self.group_ms, self._flush_due)

    def _flush_due(self) -> None:
        self._flush_armed = False
        if self.store.pending():
            self.store.sync()
            tracer = self.tracer
            if tracer.enabled:
                tracer.instant("wal.sync", trace_id="wal", proc="wal",
                               shard=self.shard, space=self.space,
                               lsn=self.store.last_lsn, group_flush=True)

    # -- reading ------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self.store.last_lsn

    # -- epoch fencing ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The primary epoch this log last committed (or adopted) under."""
        return self.store.epoch

    def set_epoch(self, epoch: int) -> None:
        """Adopt a newer epoch (monotonic; older values are ignored)."""
        self.store.set_epoch(epoch)

    def bump_epoch(self) -> int:
        """Durably advance to the next epoch and return it.

        Called by a standby at promotion time, *before* it starts
        serving — every commit it accepts is stamped with the new epoch,
        and the deposed primary's lower epoch can never pass the fence
        again."""
        self.store.set_epoch(self.store.epoch + 1)
        return self.store.epoch

    def records_since(self, lsn: int) -> list[CommitRecord]:
        """Every stored record with an LSN strictly greater than ``lsn``."""
        return self.store.records_since(lsn)

    # -- replication feed ---------------------------------------------------

    def subscribe(self, callback: Callable[[CommitRecord], None]) -> None:
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[CommitRecord], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def _notify(self, record: CommitRecord) -> None:
        for callback in list(self._subscribers):
            callback(record)


def op_write(entry_id: int, data: bytes, expiration_ms: float) -> tuple:
    return (OP_WRITE, entry_id, data, expiration_ms)


def op_take(entry_id: int) -> tuple:
    return (OP_TAKE, entry_id)
