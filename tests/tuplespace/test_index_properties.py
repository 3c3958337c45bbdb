"""Index-consistency property: indexed matching == scan matching.

The attribute indexes are *exact* — a template field an index answered
is never confirmed against the entry — so nothing downstream would catch
an index that disagreed with ``values_equal``.  This is what does: any
sequence of writes (objects and pre-encoded frames, two entry classes
in one store), takes, transactions, lease expiries, a crash +
``recover`` and a hot-standby takeover must produce exactly the same
results whether templates resolve through the ``(class, field)`` value
buckets or through a confirmed walk of the class bucket.  Two durable
spaces run the op mix in lockstep — one with indexes live, one with
``_plan`` pinned to the scan path — and every observable result, and the
final FIFO drain, must agree.

``count`` answers from per-list visible counters on the indexed path and
walks on the pinned one, so the lockstep also pins the counters — with
transactions open (own pending writes visible to their txn, takes
hidden, a txn taking its own pending write), across lease cancels and
renewals.  A field-less template reaches the class list's counter on
both paths, so every count is also checked against ``len(contents)``.

The key pool is chosen to hit every corner of the exactness rule:
``1``/``1.0``/``True`` share a bucket, NaN equals nothing (not even the
same object), and a list or set value poisons the field in mid-run.

``CHAOS_SEED`` seeds Hypothesis, so CI's matrix seeds explore different
schedules.
"""

from __future__ import annotations

import math
import os
from typing import Any, Optional

from hypothesis import example, given, seed, settings, strategies as st

from repro.errors import LeaseError
from repro.runtime import SimulatedRuntime
from repro.tuplespace import Entry, TransactionManager
from repro.tuplespace.durable import DurableSpace
from repro.util.codec import encode_entry
from tests.tuplespace.entries import TaskEntry

_env_seed = os.environ.get("CHAOS_SEED")
_seeded = seed(int(_env_seed)) if _env_seed else (lambda test: test)


class Loose(Entry):
    """Same fields as ``TaskEntry``, a second class defined (and so
    registered) here: two schemas share the store, the log and the
    checkpoint."""

    def __init__(self, app: Optional[str] = None, task_id: Any = None,
                 payload: Any = None) -> None:
        self.app = app
        self.task_id = task_id
        self.payload = payload


CLASSES = {"task": TaskEntry, "loose": Loose}

apps = st.sampled_from(["a", "b", "c"])
#: Field values: plain ints, one equality class spread over three types,
#: NaN (the singleton — the same object on the write and the template
#: side, so an index that matched by identity would be caught), and two
#: unhashable values that poison the field's index — one of which equals
#: a *hashable* template value (``{7} == frozenset({7})``), the match an
#: incomplete index would miss.
keys = st.sampled_from([0, 1, 1.0, True, 2, math.nan, [1], {7},
                        frozenset({7})])
classes = st.sampled_from(sorted(CLASSES))
maybe = lambda s: st.one_of(st.none(), s)  # noqa: E731

ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), classes, apps, keys,
                  st.sampled_from([None, 40.0]), st.booleans()),
        st.tuples(st.just("write_all"), classes,
                  st.lists(st.tuples(apps, keys), min_size=1, max_size=3),
                  st.booleans()),
        st.tuples(st.just("take"), classes, maybe(apps), maybe(keys)),
        st.tuples(st.just("read"), classes, maybe(apps), maybe(keys)),
        st.tuples(st.just("count"), classes, maybe(apps), maybe(keys)),
        st.tuples(st.just("take_multiple"), classes, maybe(apps),
                  st.integers(1, 4)),
        st.tuples(st.just("txn_take"), classes, maybe(apps), maybe(keys),
                  st.booleans()),
        # A transactional write that commits (or aborts) after a plain
        # write issued later: log order != id order, which is what makes
        # the order after recovery differ from the primary's.
        st.tuples(st.just("txn_write"), classes, apps, keys, st.booleans()),
        # Counts inside an open transaction that wrote one entry and took
        # one — its own pending write when ``own`` — then ends.
        st.tuples(st.just("txn_count"), classes, apps, keys, maybe(apps),
                  st.booleans(), st.booleans()),
        # Cancel, or renew (a FOREVER lease renewed to 10 ms expires by
        # the next sleep), the lease of an earlier single write.
        st.tuples(st.just("cancel"), st.integers(0, 7)),
        st.tuples(st.just("renew"), st.integers(0, 7),
                  st.sampled_from([10.0, 200.0])),
        st.tuples(st.just("sleep"), st.just(60.0)),
        st.tuples(st.just("crash")),
        st.tuples(st.just("failover")),
    ),
    max_size=30,
)


def _fields(entry):
    if entry is None:
        return None
    # repr: NaN must compare equal to itself here.
    return (type(entry).__name__, entry.app, repr(entry.task_id),
            entry.payload)


class _Path:
    """One of the two lockstep deployments: a durable primary and a
    standby applying its commit stream."""

    def __init__(self, runtime, indexed: bool) -> None:
        self.runtime = runtime
        self.indexed = indexed
        self.space = self._pin(DurableSpace(runtime, snapshot_every=4))
        #: Leases of the single writes made to ``space`` (a new space
        #: grants new ones).
        self.leases: list = []
        # An index can only be activated on a class the store holds.
        for cls in CLASSES.values():
            self.space.write(cls("a", 0, -1))
        self.activate(self.space)
        if indexed:
            assert all(set(self.space._indexes[cls]) == {"app", "task_id"}
                       for cls in CLASSES.values())
        self._attach_standby()

    def _pin(self, space):
        """The reference path never uses an index: every template walks
        its class bucket and confirms every field."""
        if not self.indexed:
            space._plan = lambda cls, items: (space._scan_lists[cls], [],
                                              items)
        return space

    def _attach_standby(self) -> None:
        primary = self.space
        standby = self._pin(DurableSpace(self.runtime, snapshot_every=4))
        store = primary.wal.store
        standby.bootstrap(store.snapshot,
                          primary.wal.records_since(store.snapshot_lsn))
        primary.wal.subscribe(standby.apply_commit)
        self.standby = standby
        self.activate(standby)

    def activate(self, space) -> None:
        """Activate the indexes up front so later ops exercise the
        incremental maintenance path, not just the lazy build."""
        for cls in CLASSES.values():
            space.read(cls(app="a"), timeout_ms=0.0)
            space.read(cls(task_id=0), timeout_ms=0.0)

    def crash(self) -> None:
        """The primary dies; a new process recovers from its store (and
        gets a fresh standby).  Indexes are rebuilt lazily, over entries
        now held in *apply* order."""
        self.space = self._pin(
            DurableSpace.recover(self.runtime, self.space.wal.store,
                                 snapshot_every=4))
        self.leases = []
        self._attach_standby()

    def failover(self) -> None:
        """The standby — fed only by ``apply_commit`` — takes over."""
        self.space = self.standby
        self.leases = []
        self._attach_standby()


# The corners of the exactness rule, whatever Hypothesis happens to draw.
# A set poisons the field, and equals a hashable template value:
@example(ops=[("write", "task", "a", {7}, None, False),
              ("read", "task", None, frozenset({7})),
              ("write", "loose", "a", {7}, None, True),
              ("take", "loose", "a", frozenset({7}))])
# NaN — the same object written and asked for — equals nothing:
@example(ops=[("write", "task", "a", math.nan, None, True),
              ("write", "loose", "a", math.nan, None, False),
              ("read", "task", None, math.nan),
              ("count", "loose", "a", math.nan),
              ("crash",),
              ("take", "loose", None, math.nan)])
# 1 / 1.0 / True are one value:
@example(ops=[("write", "task", "a", 1.0, None, True),
              ("write", "loose", "b", True, None, False),
              ("take", "task", None, 1),
              ("failover",),
              ("take", "loose", None, 1.0)])
# Commit order != id order, so recovery reorders the store:
@example(ops=[("txn_write", "task", "a", 1, True),
              ("crash",),
              ("read", "task", "a", None),
              ("take", "task", None, 1),
              ("txn_write", "loose", "b", 2, True),
              ("failover",),
              ("take", "loose", "b", 2)])
# A txn takes its own pending write (which hides nothing) and aborts; a
# FOREVER lease renewed short lapses; a cancel:
@example(ops=[("write", "task", "a", 1, None, False),
              ("txn_count", "task", "a", 1, None, True, False),
              ("renew", 0, 10.0),
              ("sleep", 60.0),
              ("write", "loose", "b", 2, None, True),
              ("cancel", 1),
              ("count", "loose", None, None)])
@_seeded
@given(ops=ops)
@settings(max_examples=80, deadline=None)
def test_indexed_results_equal_scan_results(ops):
    runtime = SimulatedRuntime()
    txns = TransactionManager(runtime)

    def body():
        paths = [_Path(runtime, indexed=True), _Path(runtime, indexed=False)]
        seq = 0

        def same(results):
            assert results[0] == results[1]

        def counted(space, template, txn=None):
            """``count``, checked against ``contents`` — the independent
            reference: a field-less template reaches the class list's
            counter on the scan-pinned path too."""
            n = space.count(template, txn=txn)
            assert n == len(space.contents(template, txn=txn))
            return n

        def write(space, entries, encoded, **kwargs):
            if encoded:
                frames = [encode_entry(entry) for entry in entries]
                if len(frames) == 1:
                    return space.write_encoded(frames[0], **kwargs)
                return space.write_all_encoded(frames, **kwargs)
            if len(entries) == 1:
                return space.write(entries[0], **kwargs)
            return space.write_all(entries, **kwargs)

        for op in ops:
            kind = op[0]
            if kind == "write":
                _, cls, app, key, lease, encoded = op
                for path in paths:
                    kwargs = {} if lease is None else {"lease_ms": lease}
                    path.leases.append(write(
                        path.space, [CLASSES[cls](app, key, seq)], encoded,
                        **kwargs))
                seq += 1
            elif kind == "write_all":
                _, cls, pairs, encoded = op
                for path in paths:
                    write(path.space,
                          [CLASSES[cls](app, key, seq + i)
                           for i, (app, key) in enumerate(pairs)], encoded)
                seq += len(pairs)
            elif kind in ("take", "read"):
                _, cls, app, key = op
                same([_fields(getattr(path.space, kind)(
                    CLASSES[cls](app=app, task_id=key), timeout_ms=0.0))
                    for path in paths])
            elif kind == "count":
                _, cls, app, key = op
                template = CLASSES[cls](app=app, task_id=key)
                same([counted(path.space, template) for path in paths])
                same([[_fields(e) for e in path.space.contents(template)]
                      for path in paths])
            elif kind == "take_multiple":
                _, cls, app, limit = op
                same([[_fields(e) for e in path.space.take_multiple(
                    CLASSES[cls](app=app), limit, timeout_ms=0.0)]
                    for path in paths])
            elif kind == "txn_take":
                _, cls, app, key, commit = op
                pair = [txns.create(), txns.create()]
                same([_fields(path.space.take(
                    CLASSES[cls](app=app, task_id=key), txn=txn,
                    timeout_ms=0.0)) for path, txn in zip(paths, pair)])
                for txn in pair:
                    if commit:
                        txn.commit()
                    else:
                        txn.abort()
            elif kind == "txn_write":
                _, cls, app, key, commit = op
                for path in paths:
                    txn = txns.create()
                    path.space.write(CLASSES[cls](app, key, seq), txn=txn)
                    path.space.write(CLASSES[cls](app, key, seq + 1))
                    if commit:
                        txn.commit()
                    else:
                        txn.abort()
                seq += 2
            elif kind == "txn_count":
                _, cls, app, key, take_app, own, commit = op
                klass = CLASSES[cls]
                templates = [Entry(), klass(), klass(app=app),
                             klass(task_id=key), klass(app=app, task_id=key)]
                results = []
                for path in paths:
                    space = path.space
                    txn, other = txns.create(), txns.create()
                    space.write(klass(app, key, seq), txn=txn)
                    # ``payload`` is unique to the pending write.
                    taken = space.take(
                        klass(app, key, seq) if own else klass(app=take_app),
                        txn=txn, timeout_ms=0.0)
                    # Outside the txn neither its write nor its take shows;
                    # inside, its own write is visible and its take hidden;
                    # another txn sees what the outside does.
                    seen = [(counted(space, t), counted(space, t, txn))
                            for t in templates]
                    assert [counted(space, t, other) for t in templates] == [
                        outside for outside, _ in seen]
                    if commit:
                        txn.commit()
                    else:
                        txn.abort()
                    other.abort()
                    results.append((_fields(taken), seen,
                                    [counted(space, t) for t in templates]))
                same(results)
                seq += 1
            elif kind == "cancel":
                for path in paths:
                    if path.leases:
                        path.leases[op[1] % len(path.leases)].cancel()
            elif kind == "renew":
                _, pick, ms = op
                renewed = []
                for path in paths:
                    try:
                        if path.leases:
                            path.leases[pick % len(path.leases)].renew(ms)
                        renewed.append(True)
                    except LeaseError:   # expired or cancelled already
                        renewed.append(False)
                same(renewed)
            elif kind == "sleep":
                # Expire short leases in both deployments at once.
                runtime.sleep(op[1])
            elif kind == "crash":
                for path in paths:
                    path.crash()
            else:
                for path in paths:
                    path.failover()
            # The standbys saw nothing but apply_commit, yet hold the
            # same entries in the same order on both paths.
            same([[_fields(e) for e in path.standby.contents(Entry())]
                  for path in paths])
            # The backlog gauge is the class counters, on either path
            # (read after ``count`` has reaped what lapsed).
            for path in paths:
                for space in (path.space, path.standby):
                    visible = counted(space, Entry())
                    assert space.queue_depth() == visible
        # Final drain: the remaining FIFO order must agree exactly.
        while True:
            got = [_fields(path.space.take(Entry(), timeout_ms=0.0))
                   for path in paths]
            same(got)
            if got[0] is None:
                break

    proc = runtime.kernel.spawn(body, name="driver")
    runtime.kernel.run_until_idle()
    try:
        if proc.error is not None:
            raise proc.error
        assert proc.finished
    finally:
        runtime.shutdown()
