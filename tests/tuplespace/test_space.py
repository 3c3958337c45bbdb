"""Core space semantics: write/read/take, blocking, leases, notify."""

from __future__ import annotations

import pytest

from repro.errors import SpaceError, TransactionAbortedError
from repro.tuplespace import JavaSpace, FOREVER
from repro.tuplespace.space import Waiter
from repro.tuplespace.transaction import TransactionManager
from tests.conftest import run_in_sim
from tests.tuplespace.entries import PriorityTask, ResultEntry, TaskEntry


@pytest.fixture()
def space(rt):
    return JavaSpace(rt)


def test_write_then_take(rt, space):
    def proc():
        space.write(TaskEntry("app", 1, "payload"))
        return space.take(TaskEntry(), timeout_ms=0.0)

    entry = run_in_sim(rt, proc)
    assert entry.task_id == 1
    assert entry.payload == "payload"


def test_take_removes_read_does_not(rt, space):
    def proc():
        space.write(TaskEntry("app", 1, "p"))
        first = space.read(TaskEntry(), timeout_ms=0.0)
        second = space.read(TaskEntry(), timeout_ms=0.0)
        taken = space.take(TaskEntry(), timeout_ms=0.0)
        gone = space.take(TaskEntry(), timeout_ms=0.0)
        return first, second, taken, gone

    first, second, taken, gone = run_in_sim(rt, proc)
    assert first.task_id == second.task_id == taken.task_id == 1
    assert gone is None


def test_returned_entries_are_isolated_copies(rt, space):
    def proc():
        original = TaskEntry("app", 1, {"rows": [1, 2]})
        space.write(original)
        original.payload["rows"].append(99)  # caller mutation after write
        read1 = space.read(TaskEntry(), timeout_ms=0.0)
        read1.payload["rows"].append(77)      # reader mutation
        read2 = space.read(TaskEntry(), timeout_ms=0.0)
        return read1.payload["rows"], read2.payload["rows"]

    rows1, rows2 = run_in_sim(rt, proc)
    assert rows1 == [1, 2, 77]
    assert rows2 == [1, 2]


def test_take_if_exists_nonblocking(rt, space):
    def proc():
        t0 = rt.now()
        result = space.take_if_exists(TaskEntry())
        return result, rt.now() - t0

    result, elapsed = run_in_sim(rt, proc)
    assert result is None
    assert elapsed == 0.0


def test_take_blocks_until_write(rt, space):
    def writer():
        rt.sleep(50.0)
        space.write(TaskEntry("app", 7, "late"))

    def taker():
        entry = space.take(TaskEntry(), timeout_ms=None)
        return entry.task_id, rt.now()

    rt.spawn(writer, name="writer")
    proc = rt.kernel.spawn(taker, name="taker")
    rt.kernel.run()
    assert proc.result == (7, 50.0)


def test_retry_of_a_parked_take_raises_once_its_transaction_ended(rt, space):
    """A take parked with ``wake`` under a transaction is woken when the
    transaction aborts.  Retried only after its deadline, it still raises
    what a blocked caller would, not the empty answer of a timeout."""
    txn = TransactionManager(rt).create()
    woken = []

    def proc():
        waiter = space.take_encoded(TaskEntry("job"), txn, timeout_ms=10.0,
                                    wake=lambda: woken.append(True))
        assert waiter.__class__ is Waiter
        txn.abort()
        assert woken == [True]
        rt.sleep(20.0)
        with pytest.raises(TransactionAbortedError):
            space.retry(waiter)

    run_in_sim(rt, proc)


def test_take_timeout_returns_none(rt, space):
    def proc():
        entry = space.take(TaskEntry(), timeout_ms=30.0)
        return entry, rt.now()

    assert run_in_sim(rt, proc) == (None, 30.0)


def test_each_entry_taken_exactly_once_under_contention(rt, space):
    taken: list[tuple[str, int]] = []

    def consumer(name):
        while True:
            entry = space.take(TaskEntry(), timeout_ms=200.0)
            if entry is None:
                return
            taken.append((name, entry.task_id))

    def producer():
        for i in range(20):
            space.write(TaskEntry("app", i, None))
            rt.sleep(1.0)

    for w in range(4):
        rt.spawn(lambda w=w: consumer(f"c{w}"), name=f"c{w}")
    rt.spawn(producer, name="producer")
    rt.kernel.run()

    ids = sorted(task_id for _, task_id in taken)
    assert ids == list(range(20))  # nothing lost, nothing duplicated


def test_fifo_matching_order(rt, space):
    def proc():
        for i in range(5):
            space.write(TaskEntry("app", i, None))
        return [space.take(TaskEntry(), timeout_ms=0.0).task_id for _ in range(5)]

    assert run_in_sim(rt, proc) == [0, 1, 2, 3, 4]


def test_template_selects_across_entry_classes(rt, space):
    def proc():
        space.write(TaskEntry("app", 1, None))
        space.write(ResultEntry("app", 1, 42))
        result = space.take(ResultEntry(), timeout_ms=0.0)
        task = space.take(TaskEntry(), timeout_ms=0.0)
        return type(result).__name__, type(task).__name__

    assert run_in_sim(rt, proc) == ("ResultEntry", "TaskEntry")


def test_superclass_template_takes_subclass_entry(rt, space):
    def proc():
        space.write(PriorityTask("app", 1, None, priority=5))
        entry = space.take(TaskEntry(), timeout_ms=0.0)
        return type(entry).__name__, entry.priority

    assert run_in_sim(rt, proc) == ("PriorityTask", 5)


def test_write_non_entry_rejected(rt, space):
    def proc():
        with pytest.raises(SpaceError):
            space.write({"not": "an entry"})
        return True

    assert run_in_sim(rt, proc)


def test_lease_expiry_removes_entry(rt, space):
    def proc():
        space.write(TaskEntry("app", 1, None), lease_ms=100.0)
        early = space.read(TaskEntry(), timeout_ms=0.0)
        rt.sleep(150.0)
        late = space.read(TaskEntry(), timeout_ms=0.0)
        return early is not None, late

    early_found, late = run_in_sim(rt, proc)
    assert early_found
    assert late is None


def test_lease_renewal_extends_life(rt, space):
    def proc():
        lease = space.write(TaskEntry("app", 1, None), lease_ms=100.0)
        rt.sleep(80.0)
        lease.renew(200.0)
        rt.sleep(150.0)  # t=230 < 80+200
        return space.read(TaskEntry(), timeout_ms=0.0)

    assert run_in_sim(rt, proc) is not None


def test_lease_cancel(rt, space):
    def proc():
        lease = space.write(TaskEntry("app", 1, None))
        lease.cancel()
        return space.read(TaskEntry(), timeout_ms=0.0)

    assert run_in_sim(rt, proc) is None


def test_snapshot_returns_isolated_template(rt, space):
    def proc():
        template = TaskEntry(app="x", payload={"k": 1})
        snap = space.snapshot(template)
        template.payload["k"] = 2
        return snap.payload["k"]

    assert run_in_sim(rt, proc) == 1


def test_count(rt, space):
    def proc():
        for i in range(3):
            space.write(TaskEntry("a", i, None))
        space.write(TaskEntry("b", 9, None))
        return space.count(TaskEntry(app="a")), space.count(TaskEntry())

    assert run_in_sim(rt, proc) == (3, 4)


def test_notify_fires_on_matching_write(rt, space):
    events = []

    def proc():
        space.notify(TaskEntry(app="watched"), events.append)
        space.write(TaskEntry("other", 1, None))
        space.write(TaskEntry("watched", 2, None))
        space.write(TaskEntry("watched", 3, None))
        rt.sleep(1.0)  # let async deliveries drain
        return [e.sequence for e in events]

    assert run_in_sim(rt, proc) == [1, 2]


def test_notify_lease_expiry_stops_events(rt, space):
    events = []

    def proc():
        space.notify(TaskEntry(), events.append, lease_ms=50.0)
        space.write(TaskEntry("a", 1, None))
        rt.sleep(100.0)
        space.write(TaskEntry("a", 2, None))
        rt.sleep(1.0)
        return len(events)

    assert run_in_sim(rt, proc) == 1


def test_stats_track_operations(rt, space):
    def proc():
        space.write(TaskEntry("a", 1, None))
        space.read(TaskEntry(), timeout_ms=0.0)
        space.take(TaskEntry(), timeout_ms=0.0)

    run_in_sim(rt, proc)
    assert space.stats["writes"] == 1
    assert space.stats["reads"] == 1
    assert space.stats["takes"] == 1
    assert space.stats["bytes_written"] > 0
