"""Run-to-completion dispatch: the server serves by callback.

No process is parked per listener or connection; a request that must
wait (an empty blocking take, a synchronous-replication ack) parks a
continuation that is removed on reply, on timeout *and* on connection
drop.  What a client observes — results, order, virtual instants — is
what the process-per-connection server gave it.
"""

from __future__ import annotations

import hashlib
import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.errors import ConnectionClosedError, TransactionAbortedError
from repro.experiments.harness import run_simulation
from repro.net.address import Address
from repro.net.latency import IDEAL
from repro.net.network import Network
from repro.node.cluster import testbed_small
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams
from repro.tuplespace import JavaSpace
from repro.tuplespace.durable import DurableSpace
from repro.tuplespace.proxy import SpaceProxy, SpaceServer
from repro.tuplespace.transaction import TransactionManager
from repro.util.codec import encode_entry
from tests.conftest import run_in_sim
from tests.core.toyapp import SumOfSquares
from tests.tuplespace.entries import ResultEntry, TaskEntry

ADDRESS = Address("srv", 4000)


def serve(rt, space=None, latency=IDEAL):
    network = Network(rt, latency=latency)
    space = space if space is not None else JavaSpace(rt)
    server = SpaceServer(rt, space, network, ADDRESS)
    server.start()
    return network, space, server


def parked(space):
    return sum(len(queue) for queue in space._waiters.values())


# -- (i) continuations, not processes -----------------------------------------


def test_parked_takes_cost_no_server_process_and_wake_fifo(rt):
    network, space, server = serve(rt)
    clients = 200
    got: list[tuple[int, int]] = []

    def client(i):
        proxy = SpaceProxy(network, f"c{i}", ADDRESS)
        entry = proxy.take(TaskEntry("job"), timeout_ms=None)
        got.append((i, entry.task_id))
        proxy.close()

    def body():
        standing = len(rt.kernel.processes)
        for i in range(clients):
            rt.spawn(lambda i=i: client(i), name=f"client-{i}")
            rt.sleep(1.0)           # park in connection order
        assert parked(space) == clients
        assert len(rt.kernel.processes) == standing + clients
        for task_id in range(clients):
            space.write(TaskEntry("job", task_id, None))
            rt.sleep(1.0)           # one write, one waiter answered
            assert parked(space) == clients - task_id - 1
        assert got == [(i, i) for i in range(clients)]
        rt.sleep(10.0)
        assert not server._connections and not parked(space)

    run_in_sim(rt, body)


def test_blocking_ops_answer_empty_at_exactly_their_deadline(rt):
    network, space, _ = serve(rt)       # zero latency: reply time = deadline

    def body():
        proxy = SpaceProxy(network, "c", ADDRESS)
        job = TaskEntry("job")
        rt.sleep(7.25)
        for call, timeout_ms, empty in (
                (proxy.take, 500.0, None), (proxy.read, 125.5, None),
                (lambda t, timeout_ms: proxy.take_multiple(
                    t, 4, timeout_ms=timeout_ms), 40.0, []),
                (proxy.exists, 1.0, False)):
            started = rt.now()
            assert call(job, timeout_ms=timeout_ms) == empty
            assert rt.now() == started + timeout_ms
            assert parked(space) == 0
        proxy.close()

    run_in_sim(rt, body)


def test_connection_dropped_while_parked_leaves_no_continuation(rt):
    network, space, server = serve(rt)
    space.write(ResultEntry("job", 1, "held"))

    def body():
        proxy = SpaceProxy(network, "c", ADDRESS)
        txn = proxy.transaction(timeout_ms=60_000.0)
        assert proxy.take(ResultEntry("job"), txn=txn).value == "held"

        def block():
            with pytest.raises(ConnectionClosedError):
                proxy.take(TaskEntry("job"), txn=txn, timeout_ms=None)

        rt.spawn(block, name="blocked-client")
        rt.sleep(5.0)
        assert parked(space) == 1
        session = next(iter(server._connections.values()))
        assert session.parked is not None
        proxy.fail()                    # the client host dies
        rt.sleep(5.0)
        # Continuation gone, transaction aborted (its take is back) —
        # not when the take would have timed out: now.
        assert parked(space) == 0 and session.parked is None
        assert not server._connections
        assert space.count(ResultEntry("job")) == 1
        # A later match finds no stale waiter to consume it.
        space.write(TaskEntry("job", 7, None))
        rt.sleep(5.0)
        assert space.count(TaskEntry("job")) == 1

    run_in_sim(rt, body)


def test_requests_queued_behind_a_parked_one_keep_their_order(rt):
    network, space, _ = serve(rt)

    def body():
        conn = network.connect("c", ADDRESS)
        take = {"op": "take", "args": {"template": TaskEntry("job"),
                                       "timeout_ms": None, "txn_id": None}}
        count = {"op": "count", "args": {"template": TaskEntry("job"),
                                         "txn_id": None}}
        conn.send(take)                 # parks
        conn.send(count)                # waits its turn behind it
        conn.send({"op": "ping", "args": {}})
        rt.sleep(5.0)
        assert conn.receive(timeout_ms=0.0) is None
        space.write(TaskEntry("job", 3, None))
        first = conn.receive(timeout_ms=10.0)
        assert first["value"] == encode_entry(TaskEntry("job", 3, None))
        assert conn.receive(timeout_ms=10.0)["value"] == 0
        assert conn.receive(timeout_ms=10.0)["value"]["pong"]
        conn.close()

    run_in_sim(rt, body)


def test_transaction_ending_under_a_parked_take_is_reported(rt):
    network, space, _ = serve(rt)

    def body():
        proxy = SpaceProxy(network, "c", ADDRESS)
        txn = proxy.transaction(timeout_ms=50.0)    # lease runs out
        with pytest.raises(TransactionAbortedError):
            proxy.take(TaskEntry("job"), txn=txn, timeout_ms=1_000.0)
        assert parked(space) == 0
        assert proxy.ping()             # same connection still serves
        proxy.close()

    run_in_sim(rt, body)


def test_batch_resumes_after_a_parked_sub_op(rt):
    network, space, _ = serve(rt)

    def body():
        proxy = SpaceProxy(network, "c", ADDRESS)

        def feed():
            rt.sleep(20.0)
            space.write(TaskEntry("job", 1, None))

        rt.spawn(feed, name="feeder")
        batch = proxy.batch()
        batch.write(ResultEntry("job", 0, "before"))
        batch.take(TaskEntry("job"), timeout_ms=100.0)      # parks 20 ms
        batch.write(ResultEntry("job", 1, "after"))
        batch.count(ResultEntry("job"))
        results = batch.flush()
        assert rt.now() == 20.0
        assert results[1].task_id == 1 and results[3] == 2
        proxy.close()

    run_in_sim(rt, body)


# -- (ii) same answers as the in-process space --------------------------------

CLIENTS = 3
STEP_MS = 10.0
#: Never a multiple of STEP_MS: a deadline does not coincide with a step,
#: and every op ends before its client's next step (CLIENTS * STEP_MS).
TIMEOUTS = (0.0, 5.0, 15.0, 25.0)

templates = st.builds(TaskEntry, st.sampled_from(["a", "b", None]),
                      st.sampled_from([0, 1, None]), st.none())
entries = st.builds(TaskEntry, st.sampled_from(["a", "b"]),
                    st.sampled_from([0, 1]), st.integers(0, 3))
steps = st.one_of(
    st.tuples(st.just("write"), entries),
    st.tuples(st.just("write_all"), st.lists(entries, max_size=3)),
    st.tuples(st.just("read"), templates, st.sampled_from(TIMEOUTS)),
    st.tuples(st.just("take"), templates, st.sampled_from(TIMEOUTS)),
    st.tuples(st.just("take_multiple"), templates,
              st.sampled_from(TIMEOUTS), st.integers(1, 3)),
    st.tuples(st.just("begin")), st.tuples(st.just("commit")),
    st.tuples(st.just("abort")),
)


def _plain(value):
    if isinstance(value, TaskEntry):
        return (value.app, value.task_id, value.payload)
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _play(rt, client_index, script, space, begin, log):
    """One client's steps, each at its own virtual instant."""
    txn = None
    for k, step in enumerate(script):
        due = (k * CLIENTS + client_index) * STEP_MS
        rt.sleep(due - rt.now())
        op = step[0]
        try:
            if op == "begin":
                if txn is None:
                    txn = begin()
                result = "begun"
            elif op in ("commit", "abort"):
                if txn is not None:
                    getattr(txn, op)()
                txn, result = None, op
            elif op == "write":
                space.write(step[1], txn=txn)
                result = "written"
            elif op == "write_all":
                space.write_all(step[1], txn=txn)
                result = "written"
            elif op == "take_multiple":
                result = space.take_multiple(step[1], step[3], txn=txn,
                                             timeout_ms=step[2])
            else:
                result = getattr(space, op)(step[1], txn=txn,
                                            timeout_ms=step[2])
        except TransactionAbortedError:
            txn, result = None, "aborted"
        log.append((k, op, _plain(result), rt.now()))


@seed(int(os.environ.get("CHAOS_SEED", "0")))
@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(steps, max_size=8), min_size=CLIENTS,
                max_size=CLIENTS))
def test_proxy_to_server_answers_like_the_in_process_space(scripts):
    """Both stacks in one simulation, driven by the same scripts at the
    same virtual instants: every client must see the same answers at the
    same times, whichever waited for whom."""
    rt = SimulatedRuntime()
    try:
        local = JavaSpace(rt)
        manager = TransactionManager(rt)
        network, remote, _ = serve(rt)
        logs = {}

        def body():
            for i, script in enumerate(scripts):
                proxy = SpaceProxy(network, f"c{i}", ADDRESS)
                logs["local", i], logs["remote", i] = [], []
                rt.spawn(lambda i=i, s=script: _play(
                    rt, i, s, local, lambda: manager.create(1e9),
                    logs["local", i]), name=f"local-{i}")
                rt.spawn(lambda i=i, s=script, p=proxy: _play(
                    rt, i, s, p, lambda: p.transaction(1e9),
                    logs["remote", i]), name=f"remote-{i}")
            rt.sleep(1_000.0)

        run_in_sim(rt, body)
        for i in range(CLIENTS):
            assert logs["remote", i] == logs["local", i]
        assert parked(remote) == parked(local) == 0
    finally:
        rt.shutdown()


# -- (iii) virtual timelines captured at the parent commit --------------------

TASKS = 24
_COMMON = dict(monitoring=False, compute_real=True, transactional_takes=True,
               worker_poll_ms=10_000.0, dead_letter_poll_ms=10_000.0)
#: Second (warm) job of each deployment at commit 249030b, seed 11:
#: (start instant, makespan, stream messages, message bytes, sha256 of
#: repr(report)).  The hardened job is the test_sharded_wire_cost one on
#: the "spread" placement — one primary per host, where the shared probe
#: degenerates to the old per-shard ping and nothing may move.  Its row
#: was re-captured when master checkpoints went from a 1 s period to a
#: staleness bound (was 16125.328113395974, 16122.435256571976, 853,
#: 104895, 896db6e8...: 28 checkpoints a job became 3, and the report
#: counts them); the per-task row never checkpoints and did not move.
GOLDEN = {
    "per_task": (
        dict(_COMMON, worker_prefetch=1, master_seed_batch=1,
             master_drain_batch=1),
        15391.800255481718, 15155.655015396282, 192, 17524,
        "c46f8341e7891b90dcffa43de95efb4f8ff5ed4bdd53e30b8a7d58f625f92817"),
    "hardened_spread": (
        dict(_COMMON, worker_prefetch=6, master_seed_batch=TASKS,
             master_drain_batch=TASKS, shards=4, hot_standby=True,
             durable_space=True,
             master_checkpoint_ms=1_000.0, shard_placement="spread"),
        16127.054102897042, 16122.666504186103, 695, 76203,
        "e4c3c36e5d6ff81a81d65b5ae1dc8bf1414d880a1e598a5496b82357a61d2f14"),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_warm_job_timeline_equals_the_parent_commits(shape):
    config, start_ms, makespan_ms, messages, message_bytes, sha = GOLDEN[shape]

    def body(runtime):
        cluster = testbed_small(runtime, workers=4, streams=RandomStreams(11))
        app = SumOfSquares(n=TASKS, task_cost=2_500.0, planning_cost=20.0,
                           aggregation_cost=30.0)
        framework = AdaptiveClusterFramework(runtime, cluster, app,
                                             FrameworkConfig(**config))
        framework.start()
        framework.start_all_workers()
        assert framework.master.run().complete
        stats = cluster.network.stats
        before = stats["messages"], stats["message_bytes"], runtime.now()
        report = framework.master.run()
        observed = (before[2], runtime.now() - before[2],
                    stats["messages"] - before[0],
                    stats["message_bytes"] - before[1],
                    hashlib.sha256(repr(report).encode()).hexdigest())
        framework.shutdown()
        return observed

    assert run_simulation(body) == (start_ms, makespan_ms, messages,
                                    message_bytes, sha)


# -- (iv) the synchronous-replication gate ------------------------------------


class FakeFeed:
    """A standby reduced to its wire: bootstraps, then acks on demand."""

    def __init__(self, network, host="standby"):
        self.conn = network.connect(host, ADDRESS)
        self.conn.send({"op": "replicate", "args": {"from_lsn": 0}})
        assert self.conn.receive(timeout_ms=10.0)["ok"]

    def ack(self, lsn):
        self.conn.send({"repl_ack": lsn})


def sync_server(rt):
    network, space, server = serve(rt, DurableSpace(rt, name="primary"))
    server.sync_replication = True
    server.repl_ack_timeout_ms = 500.0
    return network, space, server


def test_reply_waits_for_every_attached_feed_to_confirm_its_lsn(rt):
    network, space, server = sync_server(rt)

    def body():
        one, two = FakeFeed(network), FakeFeed(network, "standby2")
        one.ack(0)
        two.ack(0)
        proxy = SpaceProxy(network, "c", ADDRESS)
        done = []
        rt.spawn(lambda: done.append(proxy.write(TaskEntry("job", 1, None))),
                 name="writer")
        rt.sleep(10.0)
        assert space.wal.last_lsn == 1 and not done     # committed, held
        one.ack(1)
        rt.sleep(10.0)
        assert not done                 # the other feed has not confirmed
        two.ack(0)
        rt.sleep(10.0)
        assert not done                 # ...nor does a stale ack count
        two.ack(1)
        rt.sleep(10.0)
        assert done and not server._gates and not server.repl_stalls
        proxy.close()

    run_in_sim(rt, body)


def test_detached_feed_is_not_consent_and_timeout_drops_unanswered(rt):
    network, space, server = sync_server(rt)

    def body():
        feed = FakeFeed(network)
        feed.ack(0)
        proxy = SpaceProxy(network, "c", ADDRESS)
        started = rt.now()
        outcome = []

        def write():
            try:
                outcome.append(proxy.write(TaskEntry("job", 1, None)))
            except ConnectionClosedError:
                outcome.append(("dropped", rt.now()))

        rt.spawn(write, name="writer")
        rt.sleep(100.0)
        feed.conn.close()               # the only feed hangs up mid-wait
        rt.sleep(100.0)
        assert not outcome              # "no feed attached" released nothing
        rt.sleep(400.0)
        # Closed unanswered at exactly the ack timeout; nothing leaks.
        assert outcome == [("dropped", started + 500.0)]
        assert server.repl_stalls == 1
        assert not server._gates and not server._connections
        # With no feed attached a *new* commit is not gated at all.
        proxy2 = SpaceProxy(network, "c", ADDRESS)
        proxy2.write(TaskEntry("job", 2, None))
        proxy2.close()

    run_in_sim(rt, body)
