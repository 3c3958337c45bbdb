"""Group commit: fsync policies, watermarks, power loss, compaction."""

from __future__ import annotations

import os

import pytest

from repro.errors import SpaceError
from repro.tuplespace.wal import (
    FileWalStore,
    WalStore,
    WriteAheadLog,
    encode_checkpoint,
    op_write,
)
from tests.conftest import run_in_sim


def _append(wal, n, start=0):
    for i in range(start, start + n):
        wal.append((op_write(i, b"payload", float("inf")),))


def test_always_policy_syncs_every_append():
    store = WalStore(fsync_policy="always")
    wal = WriteAheadLog(store)
    _append(wal, 3)
    assert store.pending() == 0
    assert store.syncs == 3
    assert store.power_loss() == 0


def test_group_policy_buffers_until_size_watermark():
    store = WalStore(fsync_policy="group", group_size=3)
    wal = WriteAheadLog(store)
    _append(wal, 2)
    assert store.pending() == 2 and store.syncs == 0
    _append(wal, 1, start=2)                 # watermark reached
    assert store.pending() == 0 and store.syncs == 1


def test_group_policy_power_loss_drops_only_the_unsynced_tail():
    store = WalStore(fsync_policy="group", group_size=10)
    wal = WriteAheadLog(store)
    _append(wal, 4)
    wal.sync()                               # durability barrier
    _append(wal, 3, start=4)
    assert store.power_loss() == 3
    assert [r.lsn for r in store.records] == [1, 2, 3, 4]


def test_os_policy_loses_everything_unsynced_on_power_loss():
    store = WalStore(fsync_policy="os")
    wal = WriteAheadLog(store)
    _append(wal, 5)
    assert store.pending() == 5
    assert store.power_loss() == 5


def test_time_watermark_flushes_a_traffic_lull(rt):
    store = WalStore(fsync_policy="group", group_size=100)
    wal = WriteAheadLog(store, group_ms=50.0)
    wal.bind(rt)

    def body():
        _append(wal, 2)
        buffered = store.pending()
        rt.sleep(60.0)                       # past the group_ms deadline
        return buffered, store.pending()

    assert run_in_sim(rt, body) == (2, 0)


def test_bad_policy_and_group_size_rejected():
    with pytest.raises(SpaceError):
        WalStore(fsync_policy="sometimes")
    with pytest.raises(SpaceError):
        WalStore(group_size=0)


def test_file_group_commit_not_on_disk_until_sync(tmp_path):
    path = os.fspath(tmp_path / "wal")
    store = FileWalStore(path, fsync_policy="group", group_size=10)
    wal = WriteAheadLog(store)
    _append(wal, 3)

    peek = FileWalStore(path)                # what a power loss would find
    buffered = len(peek.records_since(0))
    peek.close()

    wal.sync()
    peek = FileWalStore(path)
    durable = len(peek.records_since(0))
    peek.close()
    store.close()
    assert (buffered, durable) == (0, 3)


def test_file_compaction_survives_reopen(tmp_path):
    path = os.fspath(tmp_path / "wal")
    store = FileWalStore(path)
    wal = WriteAheadLog(store)
    _append(wal, 5)
    state = encode_checkpoint(3, 2, [op_write(2, b"payload", float("inf"))])
    store.install_snapshot(3, state)
    _append(wal, 2, start=5)
    store.close()

    recovered = FileWalStore(path)
    try:
        assert recovered.snapshot == state
        assert [r.lsn for r in recovered.records_since(0)] == [4, 5, 6, 7]
        assert recovered.last_lsn == 7
    finally:
        recovered.close()


def test_file_compaction_truncates_the_log(tmp_path):
    path = os.fspath(tmp_path / "wal")
    store = FileWalStore(path)
    wal = WriteAheadLog(store)
    _append(wal, 50)
    before = os.path.getsize(path + ".log")
    store.install_snapshot(50, encode_checkpoint(50, 49, []))
    after = os.path.getsize(path + ".log")
    store.close()
    assert before > 0
    assert after == 0                        # every record was covered


def test_compaction_leaves_no_torn_temp_files(tmp_path):
    path = os.fspath(tmp_path / "wal")
    store = FileWalStore(path)
    wal = WriteAheadLog(store)
    _append(wal, 8)
    store.install_snapshot(4, encode_checkpoint(4, 3, []))
    store.close()
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


def test_stale_temp_file_is_removed_at_load(tmp_path):
    """A crash between temp-write and rename leaves ``*.tmp`` behind; it
    was never live, so the next load deletes it and reads the old file."""
    path = os.fspath(tmp_path / "wal")
    store = FileWalStore(path)
    wal = WriteAheadLog(store)
    _append(wal, 3)
    store.close()
    for suffix in (".snap.tmp", ".log.tmp", ".epoch.tmp"):
        with open(path + suffix, "wb") as fh:
            fh.write(b"half-written")
    store = FileWalStore(path)
    assert [r.lsn for r in store.records_since(0)] == [1, 2, 3]
    assert store.snapshot is None and store.epoch == 0
    store.close()
    assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []


def test_renames_are_made_durable_by_a_directory_fsync(tmp_path, monkeypatch):
    """``os.replace`` is atomic but not durable until the directory is
    fsynced: the checkpoint, the cut log and the epoch all depend on it."""
    import stat

    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(f"fsync-{kind}")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace " + os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = os.fspath(tmp_path / "wal")
    store = FileWalStore(path)
    assert events == ["fsync-dir"]           # the new log's directory entry
    wal = WriteAheadLog(store)
    _append(wal, 2)
    del events[:]
    store.install_snapshot(2, encode_checkpoint(2, 1, []))
    assert events == [
        "fsync-file",                                  # pending records
        "fsync-file", "replace wal.snap", "fsync-dir",   # new checkpoint
        "fsync-file", "replace wal.log", "fsync-dir",    # then the cut log
    ]
    del events[:]
    store.set_epoch(4)
    assert events == ["fsync-file", "replace wal.epoch", "fsync-dir"]
    store.close()


def test_a_checkpoint_issues_one_barrier_of_its_own(tmp_path):
    for store in (WalStore(), FileWalStore(os.fspath(tmp_path / "wal"))):
        wal = WriteAheadLog(store)
        _append(wal, 4)
        before = store.syncs
        store.install_snapshot(4, encode_checkpoint(4, 3, []))
        assert store.syncs - before == 1
        assert (store.checkpoints, store.tail_records, store.tail_bytes) == (
            1, 0, 0)


def test_server_crash_is_not_a_durability_barrier_but_stop_is(rt):
    """``crash()`` models losing the process: the buffered commit group
    stays at the store's mercy.  Only the graceful ``stop()`` flushes."""
    from repro.net.address import Address
    from repro.net.network import Network
    from repro.tuplespace.durable import DurableSpace
    from repro.tuplespace.proxy import SpaceServer
    from tests.tuplespace.entries import TaskEntry

    def served(port):
        store = WalStore(fsync_policy="group", group_size=64)
        space = DurableSpace(rt, wal=WriteAheadLog(store))
        server = SpaceServer(rt, space, Network(rt), Address("m", port))
        server.start()
        for i in range(5):
            space.write(TaskEntry("app", i, None))
        assert store.pending() == 5 and store.syncs == 0
        return store, server

    def body():
        store, server = served(1)
        server.crash()
        assert store.pending() == 5 and store.syncs == 0
        assert store.power_loss() == 5
        store, server = served(2)
        server.stop(drain_ms=0.0)
        assert store.pending() == 0 and store.syncs == 1
        assert store.power_loss() == 0

    run_in_sim(rt, body)
