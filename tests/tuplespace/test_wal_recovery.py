"""Durable space: WAL + snapshot recovery.

The acceptance property: recover a :class:`DurableSpace` from its WAL
store and the contents match the last *committed* pre-crash state —
transactions open at the crash are rolled back (their takes reappear,
their pending writes never existed).
"""

from __future__ import annotations

import pytest

from repro.errors import SpaceError
from repro.runtime import SimulatedRuntime
from repro.tuplespace.durable import DurableSpace
from repro.tuplespace.transaction import TransactionManager
from repro.tuplespace.entry import Entry
from repro.tuplespace.wal import (
    CommitRecord,
    FileWalStore,
    WalStore,
    WriteAheadLog,
    decode_checkpoint,
    encode_checkpoint,
    op_take,
    op_write,
)


class Point(Entry):
    def __init__(self, x=None, y=None) -> None:
        self.x = x
        self.y = y


@pytest.fixture
def runtime():
    rt = SimulatedRuntime()
    yield rt
    rt.shutdown()


def drain(runtime):
    runtime.kernel.run_until_idle()


def run(runtime, fn, name="test-proc"):
    proc = runtime.kernel.spawn(fn, name=name)
    runtime.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


# -- the log itself ------------------------------------------------------------


def test_wal_assigns_monotonic_lsns_and_notifies_subscribers():
    wal = WriteAheadLog()
    seen = []
    wal.subscribe(seen.append)
    r1 = wal.append((op_write(1, b"a", float("inf")),))
    r2 = wal.append((op_take(1),))
    assert (r1.lsn, r2.lsn) == (1, 2)
    assert wal.last_lsn == 2
    assert seen == [r1, r2]
    wal.unsubscribe(seen.append)
    wal.append((op_take(2),))
    assert len(seen) == 2


def test_import_record_rejects_stale_lsn():
    wal = WriteAheadLog()
    wal.import_record(CommitRecord(lsn=5, ops=(op_take(1),)))
    assert wal.last_lsn == 5
    with pytest.raises(SpaceError):
        wal.import_record(CommitRecord(lsn=5, ops=(op_take(2),)))


def test_install_snapshot_truncates_covered_records():
    wal = WriteAheadLog()
    for i in range(4):
        wal.append((op_write(i, bytes([i]), float("inf")),))
    state = encode_checkpoint(2, 1, [op_write(1, b"\x01", float("inf"))])
    wal.install_snapshot(2, state)
    assert [r.lsn for r in wal.records_since(0)] == [3, 4]
    assert wal.store.snapshot == state
    assert wal.store.snapshot_lsn == 2
    assert wal.last_lsn == 4
    # The LSN is part of the checkpoint; a mismatch is refused.
    with pytest.raises(SpaceError):
        wal.install_snapshot(3, state)


def test_file_wal_store_round_trips(tmp_path):
    path = tmp_path / "space"
    store = FileWalStore(path)
    wal = WriteAheadLog(store)
    records = [wal.append((op_write(i, bytes([i]), float("inf")),))
               for i in range(3)]
    snap = encode_checkpoint(1, 0, [op_write(0, b"\x00", float("inf"))])
    wal.install_snapshot(1, snap)

    reopened = FileWalStore(path)
    assert reopened.snapshot == snap
    assert reopened.snapshot_lsn == 1
    assert reopened.records_since(0) == records[1:]
    # The tail lives on the disk: nothing is held in memory after a load.
    assert reopened.records == []
    assert (reopened.tail_records, reopened.last_lsn) == (2, 3)


# -- crash recovery ------------------------------------------------------------


def committed_points(space):
    return sorted((p.x, p.y) for p in space.contents(Point()))


def test_recovery_matches_committed_state_and_rolls_back_open_txns(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store))

    def scenario():
        for i in range(4):
            space.write(Point(i, 0))
        space.take(Point(0, 0), timeout_ms=0.0)          # committed take
        txn = TransactionManager(runtime).create()
        space.write(Point(99, 99), txn=txn)              # never committed
        space.take(Point(1, 0), txn=txn, timeout_ms=0.0)  # must roll back
        # The uncommitted view differs from the committed one on purpose:
        assert space.take_if_exists(Point(1, 0)) is None

    run(runtime, scenario)
    # "Crash": recover a fresh space from the surviving store alone.
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(1, 0), (2, 0), (3, 0)]
    assert recovered.take_if_exists(Point(99, 99)) is None


def test_committed_txn_survives_recovery(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store))

    def scenario():
        space.write(Point(1, 1))
        txn = TransactionManager(runtime).create()
        space.take(Point(1, 1), txn=txn, timeout_ms=0.0)
        space.write(Point(2, 2), txn=txn)
        txn.commit()

    run(runtime, scenario)
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(2, 2)]


def test_untransacted_take_multiple_is_one_commit(runtime):
    """One call, one record (one LSN, one replication record), however
    many entries it drained: the batch survives a crash whole or not at
    all."""
    store = WalStore(fsync_policy="group", group_size=64)
    space = DurableSpace(runtime, wal=WriteAheadLog(store),
                         snapshot_every=None)

    def scenario():
        space.write_all([Point(i, 0) for i in range(10)])
        space.sync()
        before = space.wal.last_lsn
        taken = space.take_multiple(Point(), 8, timeout_ms=0.0)
        return before, [p.x for p in taken]

    before, taken = run(runtime, scenario)
    assert taken == list(range(8))
    assert space.wal.last_lsn == before + 1
    assert len(store.records[-1].ops) == 8
    # Process crash: the record reached the store, all eight are gone.
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(8, 0), (9, 0)]
    # Power loss before the group's fsync: the one record is lost, and
    # all eight are back — never some of them.
    assert store.power_loss() == 1
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(i, 0) for i in range(10)]


def test_snapshot_plus_tail_recovery(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store), snapshot_every=None)

    def scenario():
        for i in range(10):
            space.write(Point(i, i))
        space.checkpoint()                       # snapshot covers 10 writes
        space.take(Point(3, 3), timeout_ms=0.0)  # tail after the snapshot
        space.write(Point(42, 0))

    run(runtime, scenario)
    assert store.snapshot is not None
    recovered = DurableSpace.recover(runtime, store)
    expected = sorted([(i, i) for i in range(10) if i != 3] + [(42, 0)])
    assert committed_points(recovered) == expected
    # Recovery is idempotent: recover again from the same store.
    again = DurableSpace.recover(runtime, store)
    assert committed_points(again) == expected


def test_automatic_snapshot_bounds_the_log(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store), snapshot_every=5)

    def scenario():
        for i in range(23):
            space.write(Point(i, 0))

    run(runtime, scenario)
    assert store.snapshot is not None
    assert len(store.records) < 23
    # Five commits are only the floor: a checkpoint also waits for a tail
    # as large as the last one, so a growing store checkpoints less often
    # than every fifth commit.
    assert 1 < store.checkpoints < 23 // 5
    assert store.tail_records == len(store.records) == 23 - store.snapshot_lsn
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(i, 0) for i in range(23)]


def test_installing_a_checkpoint_starts_indexes_and_leases_over(runtime):
    """A standby adopting a checkpoint replaces its whole store: counts
    read through an index, a field marked unindexable and the lease queue
    all start over from the checkpoint's entries, none from the old."""
    source = DurableSpace(runtime, name="primary")
    source.write(Point(1, 5))
    last_id, ops = source._committed_state()
    space = DurableSpace(runtime, name="standby")
    space.write(Point(1, 7))
    lease = space.write(Point(1, [8]), lease_ms=10_000.0)
    assert space.count(Point(x=1)) == 2         # builds the x index
    assert space.count(Point(y=5)) == 0         # [8] marks y unindexable
    lease.renew(20_000.0)                       # queued for the reaper
    space._install_checkpoint(encode_checkpoint(1, last_id, ops))
    assert space._lease_heap == [] and space._lease_changed == []
    assert space.count(Point(x=1)) == 1
    builds = space.match_stats["index_builds"]
    assert space.count(Point(y=5)) == 1
    assert space.match_stats["index_builds"] == builds + 1   # y indexes again


def test_file_backed_recovery_end_to_end(runtime, tmp_path):
    path = tmp_path / "space"
    space = DurableSpace(runtime, wal=WriteAheadLog(FileWalStore(path)),
                         snapshot_every=4)

    def scenario():
        for i in range(9):
            space.write(Point(i, 0))
        space.take(Point(0, 0), timeout_ms=0.0)

    run(runtime, scenario)
    # Recover from the on-disk files alone (fresh store object = new "boot").
    recovered = DurableSpace.recover(runtime, FileWalStore(path))
    assert committed_points(recovered) == [(i, 0) for i in range(1, 9)]


def test_natural_lease_expiry_replays_by_deadline(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store))

    def scenario():
        space.write(Point(1, 1), lease_ms=500.0)
        space.write(Point(2, 2))
        runtime.sleep(1_000.0)

    run(runtime, scenario)
    # The expiry was never journaled; the absolute deadline in the write
    # record re-expires the entry on its own during recovery.
    recovered = DurableSpace.recover(runtime, store)
    assert committed_points(recovered) == [(2, 2)]


def test_restored_ids_do_not_collide_with_new_writes(runtime):
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store))

    def scenario():
        for i in range(3):
            space.write(Point(i, 0))

    run(runtime, scenario)
    recovered = DurableSpace.recover(runtime, store)

    def after():
        recovered.write(Point(7, 7))
        assert recovered.take_if_exists(Point(7, 7)) is not None
        # The old entries are still individually takeable (distinct ids).
        for i in range(3):
            assert recovered.take_if_exists(Point(i, 0)) is not None

    run(runtime, after)


def test_snapshot_state_is_a_pure_value(runtime):
    """The snapshot must be deserializable with no live references."""
    store = WalStore()
    space = DurableSpace(runtime, wal=WriteAheadLog(store), snapshot_every=None)

    def scenario():
        space.write(Point(5, 6))
        space.checkpoint()

    run(runtime, scenario)
    lsn, last_id, ops = decode_checkpoint(store.snapshot)
    assert (lsn, last_id) == (1, 1)
    (kind, entry_id, data, expiration_ms), = ops
    assert (kind, entry_id, expiration_ms) == ("write", 1, float("inf"))
    assert type(data) is bytes


def test_traced_boundaries_keep_their_names_and_positional_signatures():
    """``benchmarks/suite/tracing.py`` wraps these callables by name from
    the outside, reads ``install_snapshot``'s ``state`` by position to
    count checkpoint bytes and ``record_frame``'s result to count log
    bytes, and ``adapter.py`` passes the keywords below; a rename would
    silently empty the ``tuplespace.wal`` / ``tuplespace.durable``
    layers (sibling of the ``sim`` pin in tests/sim/test_kernel.py)."""
    import inspect

    from repro.tuplespace import durable, wal

    def positional(fn):
        return list(inspect.signature(fn).parameters)

    log = wal.WriteAheadLog
    assert positional(log.append) == ["self", "ops"]
    assert positional(log.import_record) == ["self", "record"]
    assert positional(log.install_snapshot) == ["self", "lsn", "state"]
    assert positional(log.records_since) == ["self", "lsn"]
    assert positional(log.set_epoch) == ["self", "epoch"]
    for name in ("sync", "bump_epoch"):
        assert positional(getattr(log, name)) == ["self"]
    assert positional(wal.record_frame) == ["record"]
    assert isinstance(wal.record_frame(
        CommitRecord(1, (op_take(1),))), bytes)
    assert positional(wal.FileWalStore.close) == ["self"]
    assert {"fsync_policy", "group_size", "codec"} <= set(
        positional(wal.FileWalStore.__init__))
    assert WalStore().syncs == 0                 # census: WalStore.syncs

    space = durable.DurableSpace
    assert positional(space.recover)[:2] == ["runtime", "store"]
    for fn in (space.__init__, space.recover):
        assert {"snapshot_every", "codec"} <= set(positional(fn))
    assert positional(space.bootstrap)[:3] == ["self", "snapshot", "records"]
    assert positional(space.apply_commit) == ["self", "record"]
    for name in ("sync", "checkpoint"):
        assert positional(getattr(space, name)) == ["self"]
    standby = durable.HotStandby
    assert positional(standby.start) == positional(standby.stop) == ["self"]
    assert positional(standby.promote)[0] == "self"


def test_a_standby_adopting_a_newer_checkpoint_drops_what_it_replaces(runtime):
    """A standby that reconnects behind a checkpoint takes the
    checkpoint's contents whole: an entry taken since its last record
    must not survive on it."""
    primary = DurableSpace(runtime, snapshot_every=None)
    standby = DurableSpace(runtime)

    def scenario():
        for x in (1, 2, 3):
            primary.write(Point(x, 0))
        standby.bootstrap(None, primary.wal.store.records_since(0))
        primary.take(Point(1, 0), timeout_ms=0.0)
        primary.checkpoint()
        store = primary.wal.store
        standby.bootstrap(store.snapshot, store.records_since(store.snapshot_lsn))
        return (standby.count(Point()), standby.count(Point(1)),
                sorted(p.x for p in standby.take_multiple(Point(), 10,
                                                          timeout_ms=0.0)))

    assert run(runtime, scenario) == (2, 0, [2, 3])
