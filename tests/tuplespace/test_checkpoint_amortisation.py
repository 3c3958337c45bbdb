"""Checkpoints cost what the log costs, not what the store costs.

Noise-free (counts and byte sums only): an automatic checkpoint fires
when at least ``snapshot_every`` commits have passed *and* the tail
logged since the last checkpoint is at least as many bytes as that
checkpoint was.  So over any run the bytes handed to the store are
bounded by a small multiple of the bytes journaled — whatever the store
holds — and an every-N full snapshot cannot creep back in unnoticed.
The trigger's figures live with the store, so a space that crashes more
often than the floor still checkpoints.
"""

from __future__ import annotations

import math
import os
import random

from repro.tuplespace.durable import DurableSpace
from repro.tuplespace.transaction import TransactionManager
from repro.tuplespace.wal import FileWalStore, WriteAheadLog, frame_size
from tests.conftest import run_in_sim
from tests.tuplespace.entries import TaskEntry

FLOOR = 64
GROUP = 64


class _MeteredStore(FileWalStore):
    """Counts what the space hands to the store, per kind."""

    def __init__(self, path, **options):
        super().__init__(path, **options)
        self.journaled = 0          # bytes of commit records
        self.largest_frame = 0
        self.checkpoint_sizes: list[int] = []

    def append(self, record):
        size = frame_size(record.ops)
        self.journaled += size
        self.largest_frame = max(self.largest_frame, size)
        super().append(record)

    def install_snapshot(self, lsn, state):
        self.checkpoint_sizes.append(len(state))
        super().install_snapshot(lsn, state)


def test_checkpoint_bytes_track_journaled_bytes_not_store_size(rt, tmp_path):
    store = _MeteredStore(tmp_path / "wal", fsync_policy="group",
                          group_size=GROUP)
    space = DurableSpace(rt, wal=WriteAheadLog(store), snapshot_every=FLOOR)
    txns = TransactionManager(rt)
    rng = random.Random(17)
    ids = iter(range(10 ** 9))

    def fresh():
        task_id = next(ids)
        return TaskEntry(f"app{task_id % 50:02d}", task_id, task_id * 3)

    def after_commit():
        # The tail never outgrows the last checkpoint by more than the
        # floor's worth of records (before the first: the floor alone).
        assert store.state_bytes == len(store.snapshot or b"")
        assert store.tail_bytes <= (
            store.state_bytes + FLOOR * store.largest_frame)
        # The tail lives on the disk: only the unwritten group is held.
        assert len(store.records) <= GROUP

    def body():
        for _ in range(10):                      # a 5 000-entry store
            space.write_all([fresh() for _ in range(500)])
            after_commit()
        for _ in range(20_000):                  # ... and 20 000 commits
            pick = rng.random()
            if pick < 0.45:
                space.write(fresh())
            elif pick < 0.90:
                assert space.take(TaskEntry(), timeout_ms=0.0) is not None
            elif pick < 0.95:
                space.write_all([fresh() for _ in range(4)])
            else:
                with txns.create() as txn:
                    assert space.take(TaskEntry(), txn=txn,
                                      timeout_ms=0.0) is not None
                    space.write(fresh(), txn=txn)
            after_commit()

    run_in_sim(rt, body)
    store.close()
    sizes = store.checkpoint_sizes
    assert space.wal.last_lsn == 20_010
    assert store.checkpoints == len(sizes) >= 2
    # Every checkpoint after the first waited for a tail as large as the
    # one before it ...
    assert len(sizes) <= math.ceil(store.journaled / min(sizes)) + 1
    # ... so all but the last sum to at most the bytes journaled: the
    # store is handed at most 2x what was logged, plus one checkpoint.
    handed = store.journaled + sum(sizes)
    assert handed <= 2 * store.journaled + max(sizes)
    # A full snapshot every FLOOR commits would have been ~300 of them.
    assert len(sizes) < 20_000 // FLOOR // 10


def test_a_crash_looping_store_still_checkpoints(rt, tmp_path):
    """Crash + recover every 10 commits — more often than the floor — for
    500 commits: the trigger's counters come from the store, not from
    the process, so the on-disk log stays bounded by state + floor."""
    path = os.fspath(tmp_path / "wal")
    rng = random.Random(5)
    ids = iter(range(10 ** 9))
    log_sizes = []

    def body():
        live = 0
        space = DurableSpace(
            rt, wal=WriteAheadLog(FileWalStore(path, fsync_policy="os")),
            snapshot_every=FLOOR)
        for _ in range(50):
            for _ in range(10):
                if live < 40 or rng.random() < 0.5:
                    task_id = next(ids)
                    space.write(TaskEntry("app", task_id, task_id))
                    live += 1
                else:
                    assert space.take(TaskEntry(),
                                      timeout_ms=0.0) is not None
                    live -= 1
            # Crash: the process is gone, the files stay.
            store = FileWalStore(path, fsync_policy="os")
            space = DurableSpace.recover(rt, store, snapshot_every=FLOOR)
            assert len(space.contents(TaskEntry())) == live
            log_sizes.append((os.path.getsize(path + ".log"),
                              store.state_bytes))
        return space

    space = run_in_sim(rt, body)
    assert space.wal.last_lsn == 500
    frame = frame_size((("write", 0, b"x" * 64, 0.0),))  # > any record here
    for log_bytes, state_bytes in log_sizes:
        assert log_bytes <= state_bytes + (FLOOR + 10) * frame
    assert log_sizes[-1][1] > 0                      # it did checkpoint
