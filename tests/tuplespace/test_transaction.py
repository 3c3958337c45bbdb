"""Transactional semantics: isolation, atomic commit/abort, lease expiry."""

from __future__ import annotations

import pytest

from repro.errors import TransactionAbortedError, TransactionError
from repro.tuplespace import JavaSpace, TransactionManager
from tests.conftest import run_in_sim
from tests.tuplespace.entries import TaskEntry


@pytest.fixture()
def space(rt):
    return JavaSpace(rt)


@pytest.fixture()
def txns(rt):
    return TransactionManager(rt)


def test_write_invisible_until_commit(rt, space, txns):
    def proc():
        txn = txns.create()
        space.write(TaskEntry("a", 1, None), txn=txn)
        outside_before = space.read(TaskEntry(), timeout_ms=0.0)
        inside = space.read(TaskEntry(), txn=txn, timeout_ms=0.0)
        txn.commit()
        outside_after = space.read(TaskEntry(), timeout_ms=0.0)
        return outside_before, inside is not None, outside_after is not None

    assert run_in_sim(rt, proc) == (None, True, True)


def test_write_discarded_on_abort(rt, space, txns):
    def proc():
        txn = txns.create()
        space.write(TaskEntry("a", 1, None), txn=txn)
        txn.abort()
        return space.read(TaskEntry(), timeout_ms=0.0)

    assert run_in_sim(rt, proc) is None


def test_take_hides_entry_until_commit(rt, space, txns):
    def proc():
        space.write(TaskEntry("a", 1, None))
        txn = txns.create()
        taken = space.take(TaskEntry(), txn=txn, timeout_ms=0.0)
        hidden = space.read(TaskEntry(), timeout_ms=0.0)
        txn.commit()
        after = space.read(TaskEntry(), timeout_ms=0.0)
        return taken is not None, hidden, after

    assert run_in_sim(rt, proc) == (True, None, None)


def test_take_restored_on_abort(rt, space, txns):
    def proc():
        space.write(TaskEntry("a", 1, "payload"))
        txn = txns.create()
        space.take(TaskEntry(), txn=txn, timeout_ms=0.0)
        txn.abort()
        restored = space.take(TaskEntry(), timeout_ms=0.0)
        return restored.payload

    assert run_in_sim(rt, proc) == "payload"


def test_abort_wakes_blocked_taker(rt, space, txns):
    """A worker crash (abort) must hand its task to another worker."""
    def victim():
        space.write(TaskEntry("a", 1, None))
        txn = txns.create()
        space.take(TaskEntry(), txn=txn, timeout_ms=0.0)
        rt.sleep(50.0)
        txn.abort()  # simulated crash recovery

    def other_worker():
        entry = space.take(TaskEntry(), timeout_ms=None)
        return entry.task_id, rt.now()

    rt.spawn(victim, name="victim")
    proc = rt.kernel.spawn(other_worker, name="other")
    rt.kernel.run()
    assert proc.result == (1, 50.0)


def test_read_lock_blocks_other_take_until_commit(rt, space, txns):
    def proc():
        space.write(TaskEntry("a", 1, None))
        reader = txns.create()
        space.read(TaskEntry(), txn=reader, timeout_ms=0.0)
        blocked = space.take(TaskEntry(), timeout_ms=0.0)  # other (null) txn
        can_read = space.read(TaskEntry(), timeout_ms=0.0)
        reader.commit()
        now_taken = space.take(TaskEntry(), timeout_ms=0.0)
        return blocked, can_read is not None, now_taken is not None

    assert run_in_sim(rt, proc) == (None, True, True)


def test_read_locker_itself_can_take(rt, space, txns):
    def proc():
        space.write(TaskEntry("a", 1, None))
        txn = txns.create()
        space.read(TaskEntry(), txn=txn, timeout_ms=0.0)
        taken = space.take(TaskEntry(), txn=txn, timeout_ms=0.0)
        txn.commit()
        return taken is not None

    assert run_in_sim(rt, proc) is True


def test_commit_is_idempotent_abort_after_commit_fails(rt, space, txns):
    def proc():
        txn = txns.create()
        space.write(TaskEntry("a", 1, None), txn=txn)
        txn.commit()
        txn.commit()  # idempotent
        with pytest.raises(TransactionError):
            txn.abort()
        return True

    assert run_in_sim(rt, proc)


def test_operations_after_abort_rejected(rt, space, txns):
    def proc():
        space.write(TaskEntry("a", 1, None))
        txn = txns.create()
        txn.abort()
        with pytest.raises(TransactionAbortedError):
            space.write(TaskEntry("a", 1, None), txn=txn)
        # Refused up front, matching entry or not.
        for op in (space.read, space.take):
            for template in (TaskEntry(), TaskEntry("none")):
                with pytest.raises(TransactionAbortedError):
                    op(template, txn=txn, timeout_ms=0.0)
        return space.count(TaskEntry()) == 1

    assert run_in_sim(rt, proc)


def test_lease_expiry_auto_aborts(rt, space, txns):
    def proc():
        space.write(TaskEntry("a", 1, None))
        txn = txns.create(timeout_ms=100.0)
        space.take(TaskEntry(), txn=txn, timeout_ms=0.0)
        rt.sleep(200.0)  # lease expires; manager aborts
        restored = space.read(TaskEntry(), timeout_ms=0.0)
        with pytest.raises(TransactionAbortedError):
            txn.commit()
        return restored is not None

    assert run_in_sim(rt, proc) is True
    assert txns.aborted_by_lease == 1


def test_context_manager_commits_on_success(rt, space, txns):
    def proc():
        with txns.create() as txn:
            space.write(TaskEntry("a", 1, None), txn=txn)
        return space.read(TaskEntry(), timeout_ms=0.0) is not None

    assert run_in_sim(rt, proc) is True


def test_context_manager_aborts_on_error(rt, space, txns):
    def proc():
        try:
            with txns.create() as txn:
                space.write(TaskEntry("a", 1, None), txn=txn)
                raise RuntimeError("worker died")
        except RuntimeError:
            pass
        return space.read(TaskEntry(), timeout_ms=0.0)

    assert run_in_sim(rt, proc) is None


def test_multiple_entries_commit_atomically(rt, space, txns):
    def proc():
        txn = txns.create()
        for i in range(5):
            space.write(TaskEntry("batch", i, None), txn=txn)
        before = space.count(TaskEntry(app="batch"))
        txn.commit()
        after = space.count(TaskEntry(app="batch"))
        return before, after

    assert run_in_sim(rt, proc) == (0, 5)


def test_notify_fires_only_on_commit(rt, space, txns):
    events = []

    def proc():
        space.notify(TaskEntry(), events.append)
        txn = txns.create()
        space.write(TaskEntry("a", 1, None), txn=txn)
        rt.sleep(1.0)
        pre_commit = len(events)
        txn.commit()
        rt.sleep(1.0)
        return pre_commit, len(events)

    assert run_in_sim(rt, proc) == (0, 1)


def test_txn_write_then_take_within_txn(rt, space, txns):
    def proc():
        txn = txns.create()
        space.write(TaskEntry("a", 1, None), txn=txn)
        taken = space.take(TaskEntry(), txn=txn, timeout_ms=0.0)
        txn.commit()
        leftover = space.read(TaskEntry(), timeout_ms=0.0)
        return taken is not None, leftover

    assert run_in_sim(rt, proc) == (True, None)
