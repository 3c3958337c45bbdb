"""``space.queue_depth`` is the space's visible backlog, whatever the
transactions and leases did.

The gauge once read ``writes - takes - expired``: a take was counted at
claim and never un-counted when its transaction aborted, and an aborted
transactional write was counted as written, so the gauge drifted both
ways from what ``count`` saw.  It now sums the per-class visible
counters, and after every transition below it must equal
``count(Entry())``.
"""

from __future__ import annotations

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from repro.tuplespace import Entry, TransactionManager
from repro.tuplespace.durable import DurableSpace
from tests.conftest import run_in_sim
from tests.core.toyapp import SumOfSquares
from tests.tuplespace.entries import ResultEntry, TaskEntry


def test_gauge_follows_aborts_commits_expiry_cancel_and_recovery(rt):
    framework = AdaptiveClusterFramework(
        rt, testbed_small(rt, workers=1, streams=RandomStreams(5)),
        SumOfSquares(n=4), FrameworkConfig(monitoring=False))
    space = framework.space
    txns = TransactionManager(rt)

    def depth(expected, of=space,
              gauge=lambda: framework.registry.value("space.queue_depth")):
        counted = of.count(Entry())          # reaps what has lapsed
        assert gauge() == counted == len(of.contents(Entry())) == expected

    def body():
        space.write(TaskEntry("app", 1))
        depth(1)
        # Aborted take: the entry is back (the old gauge read 0 here).
        txn = txns.create()
        assert space.take(TaskEntry(), txn=txn, timeout_ms=0.0) is not None
        depth(0)
        txn.abort()
        depth(1)
        # Aborted write: never visible outside the txn, never counted.
        txn = txns.create()
        space.write(ResultEntry("app", 2), txn=txn)
        assert space.count(Entry(), txn=txn) == 2
        depth(1)
        txn.abort()
        depth(1)
        # Committed take.
        txn = txns.create()
        space.take(TaskEntry(), txn=txn, timeout_ms=0.0)
        txn.commit()
        depth(0)
        # Lease expiry and cancel.
        space.write(TaskEntry("app", 3), lease_ms=50.0)
        lease = space.write(TaskEntry("app", 4))
        depth(2)
        rt.sleep(60.0)
        depth(1)
        lease.cancel()
        depth(0)

        # Crash + recover: a take open at the crash never happened.
        durable = DurableSpace(rt)
        for i in range(3):
            durable.write(TaskEntry("app", i))
        txn = txns.create()
        durable.take(TaskEntry(), txn=txn, timeout_ms=0.0)
        depth(2, durable, durable.queue_depth)
        recovered = DurableSpace.recover(rt, durable.wal.store)
        depth(3, recovered, recovered.queue_depth)

    run_in_sim(rt, body)
