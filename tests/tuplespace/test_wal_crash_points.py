"""Crash-point property: a durable space over a file WAL, crashed anywhere.

For any sequence of write / take / ``take_multiple`` / ``write_all`` /
transaction commit / transaction abort / lease cancel, under every fsync
policy, with the
process killed at a random step — or inside a checkpoint, after each of
its durable steps — what ``DurableSpace.recover`` rebuilds from the
files equals a dict shadow model *as of the last commit the policy
promised to keep*:

* process crash under ``always`` / ``os``: every commit (each record is
  handed to the OS as it is appended);
* process crash under ``group``: every commit up to the last flushed
  group (the buffered group dies with the process);
* power loss: every commit behind the last fsync barrier;
* crash inside a checkpoint: every commit (a checkpoint syncs first),
  whichever of the old/new checkpoint and full/cut log the crash left.

The model is kept per LSN, so "which commit did recovery stop at" is
read off the recovered log and checked against the promise, not guessed
— and a call that logged more than one record (an untransacted
``take_multiple`` once logged one per entry) can be recovered to an LSN
the model has no state for, which fails the lookup.
Afterwards the recovered space keeps serving the rest of the sequence
and must survive a clean restart, and checkpoint → recover → checkpoint
is byte-stable.

``CHAOS_SEED`` seeds Hypothesis, so CI's matrix seeds explore different
crash schedules.
"""

from __future__ import annotations

import os
import struct
import tempfile
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.runtime import SimulatedRuntime
from repro.tuplespace.durable import DurableSpace
from repro.tuplespace.transaction import TransactionManager
from repro.tuplespace.wal import (
    FSYNC_POLICIES,
    WAL_MAGIC,
    FileWalStore,
    WriteAheadLog,
)
from tests.conftest import run_in_sim
from tests.tuplespace.entries import TaskEntry

_env_seed = os.environ.get("CHAOS_SEED")
_seeded = seed(int(_env_seed)) if _env_seed else (lambda test: test)

#: How the process dies at the chosen step.  The three ``ckpt-*`` kinds
#: die inside ``checkpoint()``: with the temp checkpoint written but not
#: renamed, with the checkpoint renamed but the log not yet cut, and
#: with both renames done.
CRASHES = ("process", "power", "ckpt-tmp", "ckpt-snap", "ckpt-log")

_txn_ops = st.lists(st.sampled_from(["write", "take"]), min_size=1,
                    max_size=4)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write")),
        st.tuples(st.just("take")),
        st.tuples(st.just("take_multiple"), st.integers(1, 5)),
        st.tuples(st.just("write_all"), st.integers(1, 5)),
        st.tuples(st.just("commit"), _txn_ops),
        st.tuples(st.just("abort"), _txn_ops),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("sync")),
    ),
    min_size=1, max_size=30,
)


class _Crash(Exception):
    """The process dies here."""


class _Driver:
    """Runs steps against a space and a shadow model kept per LSN."""

    def __init__(self, runtime, path, policy, group_size):
        self.runtime = runtime
        self.path = path
        self.policy = policy
        self.group_size = group_size
        self.model: dict[int, int] = {}          # task_id -> payload
        self.history = {0: {}}                   # lsn -> model after it
        self.leases: dict[int, object] = {}
        self.next_id = 0
        self.txns = TransactionManager(runtime)
        self.store = self._open()
        # A floor of 2 commits makes automatic checkpoints frequent.
        self.space = DurableSpace(runtime, wal=WriteAheadLog(self.store),
                                  snapshot_every=2)

    def _open(self):
        return FileWalStore(self.path, fsync_policy=self.policy,
                            group_size=self.group_size)

    def _fresh(self):
        task_id, self.next_id = self.next_id, self.next_id + 1
        return TaskEntry("app", task_id, task_id * 7)

    def _committed(self):
        """Record the model under the LSN the step's commit was given."""
        self.history[self.space.wal.last_lsn] = dict(self.model)

    def step(self, step):
        space, kind = self.space, step[0]
        if kind == "write":
            entry = self._fresh()
            self.leases[entry.task_id] = space.write(entry)
            self.model[entry.task_id] = entry.payload
        elif kind == "take":
            got = space.take(TaskEntry(), timeout_ms=0.0)
            assert (got is None) == (not self.model)
            if got is not None:
                assert self.model.pop(got.task_id) == got.payload
        elif kind == "take_multiple":
            got = space.take_multiple(TaskEntry(), step[1], timeout_ms=0.0)
            assert len(got) == min(step[1], len(self.model))
            for entry in got:
                assert self.model.pop(entry.task_id) == entry.payload
        elif kind == "write_all":
            entries = [self._fresh() for _ in range(step[1])]
            for entry, lease in zip(entries, space.write_all(entries)):
                self.leases[entry.task_id] = lease
                self.model[entry.task_id] = entry.payload
        elif kind in ("commit", "abort"):
            txn = self.txns.create()
            written: dict[int, int] = {}
            taken: set[int] = set()
            for op in step[1]:
                if op == "write":
                    entry = self._fresh()
                    self.leases[entry.task_id] = space.write(entry, txn=txn)
                    written[entry.task_id] = entry.payload
                else:
                    got = space.take(TaskEntry(), txn=txn, timeout_ms=0.0)
                    if got is None:
                        continue
                    if written.pop(got.task_id, None) is None:
                        taken.add(got.task_id)
            if kind == "commit":
                txn.commit()
                for task_id in taken:
                    del self.model[task_id]
                self.model.update(written)
            else:
                txn.abort()
        elif kind == "cancel":
            # Only entries written by this process have a lease in hand.
            live = sorted(self.model.keys() & self.leases.keys())
            if live:
                task_id = live[step[1] % len(live)]
                self.leases[task_id].cancel()
                # The cancellation is journaled when the space next
                # reaps; make that now so it is this step's commit.
                space.count(TaskEntry())
                del self.model[task_id]
        elif kind == "sync":
            space.sync()
        self._committed()

    # -- dying ---------------------------------------------------------------

    def crash(self, how) -> int:
        """Kill the process ``how``; returns the LSN recovery must reach."""
        store, last = self.store, self.space.wal.last_lsn
        if how == "process":
            # ``records`` is the group not yet handed to the OS.
            return last - len(store.records)
        if how == "power":
            kept = last - store.pending()
            store.power_loss()
            return kept
        die_before = {"ckpt-tmp": 1, "ckpt-snap": 2, "ckpt-log": 3}[how]
        calls = [0]
        real_replace = os.replace

        def replace(src, dst):
            calls[0] += 1
            if calls[0] == die_before:
                raise _Crash(how)
            real_replace(src, dst)
            if calls[0] == 2 and die_before == 3:
                raise _Crash(how)

        with mock.patch.object(os, "replace", replace):
            with pytest.raises(_Crash):
                self.space.checkpoint()
        return last

    def recover(self, expect_lsn):
        """A new process: reopen the files, rebuild, compare."""
        self.store = self._open()
        # One record kind: every frame the space journalled is a 0xC5.
        with open(self.path + ".log", "rb") as fh:
            raw = fh.read()
        pos = 0
        while pos < len(raw):
            assert raw[pos] == WAL_MAGIC
            pos += 9 + struct.unpack_from("<I", raw, pos + 1)[0]
        self.space = DurableSpace.recover(self.runtime, self.store,
                                          snapshot_every=2)
        assert self.space.wal.last_lsn == expect_lsn
        self.model = dict(self.history[expect_lsn])
        self.history = {expect_lsn: dict(self.model)}
        self.leases = {}
        self.check_contents()

    def check_contents(self):
        got = {e.task_id: e.payload
               for e in self.space.contents(TaskEntry())}
        assert got == self.model


def _scenario(steps, policy, group_size, crash_at, how):
    runtime = SimulatedRuntime()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            driver = _Driver(runtime, os.path.join(tmp, "wal"), policy,
                             group_size)

            def body():
                cut = crash_at % (len(steps) + 1)
                for step in steps[:cut]:
                    driver.step(step)
                driver.recover(driver.crash(how))
                # No temp file survives a load, whatever the crash left.
                assert not [n for n in os.listdir(tmp) if n.endswith(".tmp")]

                # The survivor keeps serving (fresh ids, appendable log)
                # and survives a clean restart.
                for step in steps[cut:]:
                    driver.step(step)
                driver.check_contents()
                driver.store.close()
                driver.recover(driver.space.wal.last_lsn)

                # checkpoint -> recover -> checkpoint is byte-stable.
                driver.space.checkpoint()
                first = driver.store.snapshot
                driver.store.close()
                driver.recover(driver.space.wal.last_lsn)
                driver.space.checkpoint()
                assert driver.store.snapshot == first
                driver.store.close()

            run_in_sim(runtime, body)
    finally:
        runtime.shutdown()


@pytest.mark.parametrize("policy", FSYNC_POLICIES)
@_seeded
@settings(max_examples=150, deadline=None)
@given(steps=_steps, group_size=st.integers(1, 6),
       crash_at=st.integers(0, 30), how=st.sampled_from(CRASHES))
def test_recovery_equals_the_acknowledged_prefix(policy, steps, group_size,
                                                 crash_at, how):
    _scenario(steps, policy, group_size, crash_at, how)


@pytest.mark.parametrize("how", CRASHES)
@pytest.mark.parametrize("policy", FSYNC_POLICIES)
def test_every_crash_kind_on_a_fixed_sequence(policy, how):
    """Each (policy, crash kind) cell at least once, whatever Hypothesis
    happens to draw: a sequence with every op kind, crashed late."""
    steps = [("write_all", 4), ("write",), ("take",),
             ("commit", ["take", "write", "write"]), ("cancel", 1),
             ("abort", ["take", "write"]), ("write",), ("sync",),
             ("write",), ("take_multiple", 3), ("write_all", 2)]
    _scenario(steps, policy, group_size=3, crash_at=10, how=how)
