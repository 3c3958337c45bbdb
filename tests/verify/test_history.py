"""RecordingSpace / RecordingTransaction history capture semantics."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionClosedError, FencedError
from repro.tuplespace.entry import Entry
from repro.tuplespace.space import JavaSpace
from repro.verify import HistoryRecorder, RecordingSpace, check_history
from repro.verify.history import (
    ABORTED,
    COMMITTED,
    INDETERMINATE,
    PENDING,
    REJECTED,
    RecordingTransaction,
)
from tests.conftest import run_in_sim


class TaskEntry(Entry):
    def __init__(self, task_id=None, payload=None):
        self.task_id = task_id
        self.payload = payload


def test_in_process_write_take_recorded_committed(rt):
    history = HistoryRecorder(rt)
    space = RecordingSpace(JavaSpace(rt), history, client="w1")

    def proc():
        space.write(TaskEntry(1, "a"))
        got = space.take(TaskEntry(1), timeout_ms=0.0)
        assert got.payload == "a"
        missing = space.take(TaskEntry(9), timeout_ms=0.0)
        assert missing is None

    run_in_sim(rt, proc)
    assert [(op.op, op.status) for op in history.ops] == [
        ("write", COMMITTED), ("take", COMMITTED)]
    assert history.ops[0].key == ("TaskEntry", 1)
    assert history.ops[0].client == "w1"
    assert check_history(history, final_entries=[]).ok


class _FakeTxn:
    """Duck-typed RemoteTransaction: records calls, optionally fails."""

    def __init__(self, commit_error=None):
        self.txn_id = 7
        self.completed = False
        self._commit_error = commit_error

    def commit(self):
        if self._commit_error is not None:
            raise self._commit_error
        self.completed = True

    def abort(self):
        self.completed = True


def _recorded_write(rt, txn):
    history = HistoryRecorder(rt)
    op = history.record("write", TaskEntry(1), "w", 0.0, PENDING)
    txn._buffer(op)
    return history, op


def test_transaction_commit_resolves_buffered_ops(rt):
    txn = RecordingTransaction(_FakeTxn(), HistoryRecorder(rt), "w")
    history, op = _recorded_write(rt, txn)
    txn.commit()
    assert op.status == COMMITTED
    assert op.responded_ms is not None


def test_transaction_abort_resolves_aborted(rt):
    txn = RecordingTransaction(_FakeTxn(), HistoryRecorder(rt), "w")
    history, op = _recorded_write(rt, txn)
    txn.abort()
    assert op.status == ABORTED


def test_fenced_commit_resolves_rejected(rt):
    txn = RecordingTransaction(_FakeTxn(FencedError("stale")),
                               HistoryRecorder(rt), "w")
    history, op = _recorded_write(rt, txn)
    with pytest.raises(FencedError):
        txn.commit()
    assert op.status == REJECTED


def test_lost_commit_resolves_indeterminate_and_sticks(rt):
    txn = RecordingTransaction(_FakeTxn(ConnectionClosedError("gone")),
                               HistoryRecorder(rt), "w")
    history, op = _recorded_write(rt, txn)
    with pytest.raises(ConnectionClosedError):
        txn.commit()
    assert op.status == INDETERMINATE
    # First resolution wins: the cleanup abort that follows a failed
    # commit must not downgrade "maybe happened" to "didn't happen".
    txn.abort()
    assert op.status == INDETERMINATE


def test_completed_setter_resolves_aborted(rt):
    # Worker error paths assign .completed directly after a failed abort.
    txn = RecordingTransaction(_FakeTxn(), HistoryRecorder(rt), "w")
    history, op = _recorded_write(rt, txn)
    txn.completed = True
    assert op.status == ABORTED


def test_client_killed_mid_flight_leaves_pending(rt):
    txn = RecordingTransaction(_FakeTxn(), HistoryRecorder(rt), "w")
    history, op = _recorded_write(rt, txn)
    # Nobody ever resolves the transaction (the worker died): the op
    # stays PENDING, which the checker folds into indeterminate.
    assert op.status == PENDING
    assert check_history(history, final_entries=[]).ok


class _StallingBatch:
    """Duck-typed batch whose ``flush`` runs ``mid_flight`` after the
    write + commit sub-ops took effect and before it returns — the
    worker's write-back batch blocked in its trailing prefetch take."""

    def __init__(self, mid_flight):
        self._mid_flight = mid_flight
        self._ops = 0

    def _index(self):
        self._ops += 1
        return self._ops - 1

    def write_all(self, entries, txn=None, lease_ms=None, requeue=False):
        return self._index()

    def commit(self, txn):
        return self._index()

    def take_multiple(self, template, max_entries, txn=None, timeout_ms=0.0):
        return self._index()

    def flush(self):
        self._mid_flight()
        return [{"count": 1}, None, []]


class _BatchingSpace:
    def __init__(self, mid_flight):
        self._mid_flight = mid_flight

    def batch(self):
        return _StallingBatch(self._mid_flight)


def test_batch_writes_are_in_the_history_while_the_flush_is_in_flight(rt):
    """The seed-23 / 4-shard / kill-shard / prefetch-4 red, minus the
    timing: a write-back batch (write_all + commit + prefetch take) whose
    commit landed is observed by the master while the batch's flush is
    still blocked in the take, and the history is closed right then.
    The results' writes must already be on record (pending), or the
    checker sees a committed take of an entry nobody wrote."""
    history = HistoryRecorder(rt)
    verdicts = []

    def master_drains_then_history_closes():
        history.record("take", TaskEntry(1, "r"), "master", history.now(),
                       COMMITTED)
        verdicts.append(check_history(history, final_entries=[]))

    worker = RecordingSpace(_BatchingSpace(master_drains_then_history_closes),
                            history, client="w1")
    txn = RecordingTransaction(_FakeTxn(), history, "w1")
    batch = worker.batch()
    batch.write_all([TaskEntry(1, "r")], txn=txn)
    batch.commit(txn)
    batch.take_multiple(TaskEntry(), 4, timeout_ms=250.0)
    batch.flush()

    mid_flight = verdicts[0]
    assert mid_flight.ok, mid_flight.summary()
    assert mid_flight.by_status == {COMMITTED: 1, PENDING: 1}
    # Once the flush returns, the same record resolves with its commit.
    write = next(op for op in history.ops if op.op == "write")
    assert write.status == COMMITTED
    assert check_history(history, final_entries=[]).ok
