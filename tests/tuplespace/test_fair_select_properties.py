"""Property: the O(tenants) fair-share selection equals the full walk.

A fair-share ``take`` picks its tenant by deficit round-robin among the
tenants that have a visible match, then serves that tenant's FIFO-first
match.  The space finds each tenant's first matches from its ``tenant``
value bucket (:meth:`JavaSpace._fair_queues`); the reference kept here
is the selection it replaced: for every claim, one walk over every
visible match, reading each one's tenant.  Two spaces run the same op
mix in lockstep, one with each selection, and after every ``take`` and
``take_multiple`` they must have served the same entries and hold the
same ``fair_stats`` and deficits.

The mix covers what decides visibility and tenancy: several weighted
tenants plus entries with no tenant and with tenant ``""`` (together
the pseudo-tenant ``""``), two entry classes under one template, a
transaction's own pending writes, entries read-locked by another
transaction, leases that lapse or are cancelled, and an unhashable
tenant that poisons the ``tenant`` index.

``CHAOS_SEED`` seeds Hypothesis, so CI's matrix seeds explore different
schedules.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from hypothesis import example, given, seed, settings, strategies as st

from repro.core.entries import TaskEntry
from repro.errors import LeaseError
from repro.runtime import SimulatedRuntime
from repro.tuplespace import JavaSpace, TransactionManager
from repro.util.codec import read_fields

_env_seed = os.environ.get("CHAOS_SEED")
_seeded = seed(int(_env_seed)) if _env_seed else (lambda test: test)


class UrgentTask(TaskEntry):
    """A second entry class a ``TaskEntry`` template matches."""


class WalkSpace(JavaSpace):
    """The reference: one walk over every visible match per claim."""

    def _take_fair(self, template_cls, items, txn, max_entries):
        found = []
        while len(found) < max_entries:
            stored = self._find_fair(template_cls, items, txn)
            if stored is None:
                break
            self._claim(stored, txn, True)
            found.append(stored)
        return found

    def _find_fair(self, template_cls, items, txn):
        candidates: dict[Any, Any] = {}
        for stored in self._matching(template_cls, items, txn, take=True):
            tenant = self._walk_tenant_of(stored)
            if tenant not in candidates:
                candidates[tenant] = stored
        if not candidates:
            return None
        if len(candidates) == 1:
            (tenant, stored), = candidates.items()
            self._drr_deficit.pop(tenant, None)
            key = f"grants:{tenant or '-'}"
            self.fair_stats[key] = self.fair_stats.get(key, 0) + 1
            return stored
        return candidates[self._drr_select(sorted(candidates))]

    def _walk_tenant_of(self, stored):
        cls = stored.cls
        by_value = self._indexes.get(cls, {}).get("tenant")
        if by_value is None and "tenant" not in self._unindexable.get(cls, ()):
            by_value = self._build_index(cls, "tenant")
        if by_value is None:
            return read_fields(stored.data, ("tenant",))[0] or ""
        sl = stored.filed.get("tenant") if stored.filed else None
        return sl.key if sl is not None else ""


CLASSES = {"task": TaskEntry, "urgent": UrgentTask}
classes = st.sampled_from(sorted(CLASSES))
tenants = st.sampled_from([None, "", "a", "b", "c"])
slots = st.integers(0, 1)
shares = st.dictionaries(st.sampled_from(["", "a", "b"]),
                         st.sampled_from([0.5, 1.0, 3.0]), max_size=3)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), classes, tenants,
                  st.sampled_from([None, 40.0])),
        # A pending write of an open transaction: its own takes see it.
        st.tuples(st.just("txn_write"), slots, classes, tenants),
        st.tuples(st.just("take"), st.one_of(st.none(), slots)),
        st.tuples(st.just("take_multiple"), st.one_of(st.none(), slots),
                  st.integers(1, 6)),
        # A shared read lock, held until the transaction ends: other
        # transactions' takes must skip the entry.
        st.tuples(st.just("read_lock"), slots, tenants),
        st.tuples(st.just("end"), slots, st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, 7)),
        st.tuples(st.just("sleep"), st.just(60.0)),
        # An unhashable tenant, written and taken back out: the
        # ``tenant`` index stays poisoned.
        st.tuples(st.just("poison"), classes),
    ),
    max_size=40,
)


def _fields(entry) -> Optional[tuple]:
    if entry is None:
        return None
    return (type(entry).__name__, entry.tenant, entry.task_id)


@example(shares={"a": 3.0}, ops=[
    ("write", "task", "a", None), ("write", "urgent", "b", None),
    ("write", "task", None, None), ("write", "task", "", None),
    ("take_multiple", None, 6)])
@example(shares={"b": 0.5}, ops=[
    ("write", "task", "a", None), ("write", "task", "a", None),
    ("write", "urgent", "b", None), ("take", None),
    ("txn_write", 0, "urgent", "b"), ("write", "task", "b", 40.0),
    ("read_lock", 1, "a"), ("write", "task", "a", None),
    ("take_multiple", 0, 4), ("sleep", 60.0), ("take", 1),
    ("poison", "task"), ("write", "urgent", "c", None),
    ("take_multiple", None, 3)])
@_seeded
@given(shares=shares, ops=ops)
@settings(max_examples=80, deadline=None)
def test_bucket_selection_equals_the_full_walk(shares, ops):
    runtime = SimulatedRuntime()
    manager = TransactionManager(runtime)

    def body():
        spaces = [JavaSpace(runtime), WalkSpace(runtime)]
        for space in spaces:
            space.configure_fair_share(shares)
        open_txns: dict[int, list] = {}
        leases: list[list] = []
        serial = 0

        def txns(slot):
            if slot is None:
                return [None, None]
            if slot not in open_txns:
                open_txns[slot] = [manager.create(), manager.create()]
            return open_txns[slot]

        def same(results):
            assert results[0] == results[1]
            assert spaces[0].fair_stats == spaces[1].fair_stats
            assert spaces[0]._drr_deficit == spaces[1]._drr_deficit

        for op in ops:
            kind = op[0]
            if kind == "write":
                _, cls, tenant, lease = op
                kwargs = {} if lease is None else {"lease_ms": lease}
                leases.append([space.write(
                    CLASSES[cls]("job", serial, tenant=tenant), **kwargs)
                    for space in spaces])
                serial += 1
            elif kind == "txn_write":
                _, slot, cls, tenant = op
                for space, txn in zip(spaces, txns(slot)):
                    space.write(CLASSES[cls]("job", serial, tenant=tenant),
                                txn=txn)
                serial += 1
            elif kind == "take":
                same([_fields(space.take(TaskEntry(), txn=txn,
                                         timeout_ms=0.0))
                      for space, txn in zip(spaces, txns(op[1]))])
            elif kind == "take_multiple":
                _, slot, limit = op
                same([[_fields(e) for e in space.take_multiple(
                    TaskEntry(), limit, txn=txn, timeout_ms=0.0)]
                    for space, txn in zip(spaces, txns(slot))])
            elif kind == "read_lock":
                _, slot, tenant = op
                assert len({_fields(space.read(
                    TaskEntry(tenant=tenant), txn=txn, timeout_ms=0.0))
                    for space, txn in zip(spaces, txns(slot))}) == 1
            elif kind == "end":
                _, slot, commit = op
                for txn in open_txns.pop(slot, ()):
                    txn.commit() if commit else txn.abort()
            elif kind == "cancel":
                if op[1] < len(leases):
                    for lease in leases[op[1]]:
                        try:
                            lease.cancel()
                        except LeaseError:
                            pass    # taken or lapsed already
            elif kind == "sleep":
                runtime.sleep(op[1])
            elif kind == "poison":
                for space in spaces:
                    space.write(CLASSES[op[1]]("job", -1, tenant=["x"]))
                    # Activates the index over the unhashable value...
                    space.count(TaskEntry(tenant="a"))
                    # ...and a template that pins it takes it back out.
                    assert space.take(TaskEntry(tenant=["x"]),
                                      timeout_ms=0.0) is not None
        for txn_pair in open_txns.values():
            for txn in txn_pair:
                txn.abort()
        # Drain: the rest comes out in the same order too.
        same([[_fields(e) for e in space.take_multiple(
            TaskEntry(), 10_000, timeout_ms=0.0)] for space in spaces])

    proc = runtime.kernel.spawn(body, name="lockstep")
    try:
        runtime.kernel.run()
        if proc.error is not None:
            raise proc.error
    finally:
        runtime.shutdown()
