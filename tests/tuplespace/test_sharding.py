"""Sharded tuple space: hash ring properties, routing, scatter-gather.

Ring invariants are checked with hypothesis (stability under growth is
the property consistent hashing exists for); the router tests run against
real :class:`SpaceServer` instances over the simulated network, one per
shard, so scatter-gather and shard-local transactions exercise the same
RPC path production uses.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.entries import TaskEntry as Task
from repro.errors import AdmissionError, NetworkError, SpaceError
from repro.net import Address, LatencyModel, Network
from repro.telemetry import Tracer
from repro.tuplespace import (
    HashRing,
    JavaSpace,
    ShardRouter,
    SpaceProxy,
    SpaceServer,
    stable_hash,
)
from repro.tuplespace.proxy import AdmissionConfig
from tests.tuplespace.entries import ResultEntry, TaskEntry

keys = st.one_of(st.integers(-10_000, 10_000),
                 st.text(alphabet="abcdef0123456789", max_size=12))


# ---------------------------------------------------------------- hash ring --

@given(key=keys)
def test_stable_hash_is_deterministic(key):
    assert stable_hash(key) == stable_hash(key)


@given(key=keys, shards=st.integers(1, 32))
def test_ring_routes_in_range(key, shards):
    ring = HashRing(shards)
    assert 0 <= ring.shard_for(key) < shards


@settings(max_examples=25, deadline=None)
@given(shards=st.integers(1, 12), seed=st.integers(0, 9))
def test_ring_growth_moves_keys_only_to_the_new_shard(shards, seed):
    """Adding shard N+1 never remaps a key between pre-existing shards."""
    old_ring = HashRing(shards)
    new_ring = HashRing(shards + 1)
    for i in range(300):
        key = f"key:{seed}:{i}"
        old_shard = old_ring.shard_for(key)
        new_shard = new_ring.shard_for(key)
        assert new_shard == old_shard or new_shard == shards


@settings(max_examples=10, deadline=None)
@given(shards=st.integers(2, 12))
def test_ring_growth_remaps_about_one_over_n(shards):
    """Adding a shard moves ≈ 1/(N+1) of keys (≤ 2× with 64 vnodes)."""
    old_ring = HashRing(shards)
    new_ring = HashRing(shards + 1)
    n = 2000
    moved = sum(
        1 for i in range(n)
        if old_ring.shard_for(f"key:{i}") != new_ring.shard_for(f"key:{i}")
    )
    assert moved <= 2.0 * n / (shards + 1)


def test_ring_spreads_keys_over_every_shard():
    ring = HashRing(8)
    hits = [0] * 8
    for i in range(4000):
        hits[ring.shard_for(i)] += 1
    assert min(hits) > 0
    # No shard holds more than ~3x its fair share.
    assert max(hits) < 3 * 4000 / 8


# ------------------------------------------------------------------- router --

N_SHARDS = 4
ADDRESSES = [Address("spacehost", 4255 + 2 * i) for i in range(N_SHARDS)]


@pytest.fixture()
def env(rt):
    net = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0,
                                           per_kb_ms=0.0))
    spaces = [JavaSpace(rt) for _ in range(N_SHARDS)]
    servers = [SpaceServer(rt, space, net, address)
               for space, address in zip(spaces, ADDRESSES)]
    for server in servers:
        server.start()
    return net, spaces, servers


def run(rt, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


def make_router(net, host="client"):
    return ShardRouter(net, host, ADDRESSES)


def test_routed_write_lands_on_the_ring_shard(rt, env):
    net, spaces, _ = env

    def proc():
        router = make_router(net)
        for i in range(12):
            router.write(TaskEntry("app", i, i))
        router.close()
        ring = router.ring
        for i in range(12):
            shard = ring.shard_for(i)
            assert spaces[shard].count(TaskEntry(task_id=i)) == 1, \
                f"task {i} not on its ring shard {shard}"
        return sum(space.count(TaskEntry()) for space in spaces)

    assert run(rt, proc) == 12


def test_keyed_take_reads_one_shard(rt, env):
    net, _, _ = env

    def proc():
        router = make_router(net)
        router.write(TaskEntry("app", 7, "payload"))
        entry = router.take(TaskEntry(task_id=7), timeout_ms=100.0)
        router.close()
        return entry.payload

    assert run(rt, proc) == "payload"


def test_wildcard_take_scatters_first_match_wins(rt, env):
    net, _, _ = env

    def proc():
        router = make_router(net)
        for i in range(8):
            router.write(TaskEntry("app", i, i))
        got = {router.take(TaskEntry(), timeout_ms=100.0).task_id
               for _ in range(8)}
        missing = router.take_if_exists(TaskEntry())
        router.close()
        return got, missing

    got, missing = run(rt, proc)
    assert got == set(range(8))
    assert missing is None


def test_wildcard_count_and_contents_merge_all_shards(rt, env):
    net, _, _ = env

    def proc():
        router = make_router(net)
        for i in range(10):
            router.write(TaskEntry("app", i, i))
        count = router.count(TaskEntry())
        ids = sorted(e.task_id for e in router.contents(TaskEntry()))
        router.close()
        return count, ids

    count, ids = run(rt, proc)
    assert count == 10
    assert ids == list(range(10))


def test_wildcard_take_multiple_gathers_across_shards(rt, env):
    net, spaces, _ = env

    def proc():
        router = make_router(net)
        router.write_all([TaskEntry("app", i, i) for i in range(10)])
        chunk = router.take_multiple(TaskEntry(), 6, timeout_ms=100.0)
        rest = router.take_multiple(TaskEntry(), 10, timeout_ms=100.0)
        router.close()
        touched = sum(1 for space in spaces
                      if space.count(TaskEntry()) == 0)
        return len(chunk), len(rest), touched

    took, rest, emptied = run(rt, proc)
    assert took == 6
    assert rest == 4
    assert emptied == N_SHARDS  # everything drained


def test_parallel_write_all_reports_total(rt, env):
    net, spaces, _ = env

    def proc():
        router = make_router(net)
        total = router.write_all([TaskEntry("app", i, i) for i in range(16)])
        router.close()
        return total, sum(space.count(TaskEntry()) for space in spaces)

    total, present = run(rt, proc)
    assert total == 16
    assert present == 16


def test_scatter_write_all_judges_every_shard_in_order(rt, env, monkeypatch):
    """A write_all over several shards sends every group before it reads
    a reply, on the caller's own process, then judges the outcomes in
    shard order: the sum when all land; else a failure that is not a clean
    admission rejection, whatever was rejected before it in shard order;
    else the first rejection, naming the entries that landed.  A failed
    send stops no other shard's send.  Each request is an
    ``rpc.write_all`` span under the caller's span."""
    net, spaces, servers = env
    tracer = Tracer(rt, enabled=True)
    spawned = []

    def tasks(start):
        return [Task("app", i, tenant="t") for i in range(start, start + 16)]

    def proc():
        spawn = rt.kernel.spawn
        monkeypatch.setattr(rt.kernel, "spawn", lambda fn, name="proc": (
            spawned.append(name) or spawn(fn, name=name)))
        router = ShardRouter(net, "master", ADDRESSES, tracer=tracer)
        entries = tasks(0)
        assert {router._entry_shard(e) for e in entries} == set(range(4))
        planning = tracer.start("planning", trace_id="job/app", proc="master")
        with tracer.activate(planning):
            total = router.write_all(entries)
        planning.end()
        seeding = [s for s in tracer.spans if s.name == "rpc.write_all"]

        servers[1].enable_admission(AdmissionConfig(max_in_flight=0))
        servers[2].enable_admission(AdmissionConfig(queue_hard_watermark=0))
        entries = tasks(16)
        with pytest.raises(AdmissionError) as rejected:
            router.write_all(entries)
        landed = [e for shard in (0, 3) for e in entries
                  if router._entry_shard(e) == shard]
        router.close()

        servers[0].crash()
        router = ShardRouter(net, "master", ADDRESSES)
        entries = tasks(32)
        with pytest.raises(NetworkError):
            router.write_all(entries)
        on_3 = [e.task_id for e in entries if router._entry_shard(e) == 3]
        router.close()
        return total, planning, seeding, rejected.value, landed, on_3

    total, planning, seeding, rejected, landed, on_3 = run(rt, proc)
    assert total == 16
    assert spawned == []
    assert len(seeding) == N_SHARDS
    assert all(s.parent_id == planning.span_id and s.trace_id == "job/app"
               and s.end_ms is not None for s in seeding)
    # Shard 1's rejection, not shard 2's, naming shards 0 and 3's groups.
    assert rejected.reason == "in-flight"
    assert rejected.admitted_entries == tuple(landed)
    # Shard 0 refused the connection; shard 3 still got its group.
    assert sorted(e.task_id for e in spaces[3].contents(Task())
                  if e.task_id >= 32) == sorted(on_3)


def test_blocked_wildcard_take_wakes_on_any_shard(rt, env):
    """A camped scatter consumer must wake when the entry lands on a
    shard other than the one it polled first."""
    net, _, _ = env

    def proc():
        router = make_router(net)
        results = []

        def consumer():
            entry = router.take(ResultEntry(), timeout_ms=5_000.0)
            results.append((rt.now(), entry.task_id))

        writer_router = make_router(net, host="writer")
        consumer_proc = rt.spawn(consumer, name="consumer")
        rt.sleep(50.0)
        writer_router.write(ResultEntry("app", 3, "late"))
        consumer_proc.join()
        writer_router.close()
        router.close()
        return results[0]

    woke_at, task_id = run(rt, proc)
    assert task_id == 3
    # Wakes on arrival (~50ms), not a full 250ms camp quantum later.
    assert woke_at < 150.0


def test_transaction_pins_to_one_shard(rt, env):
    net, _, _ = env

    def proc():
        router = make_router(net)
        router.write(TaskEntry("app", 1, "a"))
        ring = router.ring
        task_shard = ring.shard_for(1)
        # A result id that hashes to the same shard can share the txn...
        same = next(i for i in range(100) if ring.shard_for(i) == task_shard)
        other = next(i for i in range(100) if ring.shard_for(i) != task_shard)
        with router.transaction(timeout_ms=10_000.0) as txn:
            entry = router.take(TaskEntry(task_id=1), txn=txn,
                                timeout_ms=100.0)
            assert entry is not None
            router.write(ResultEntry("app", same, "ok"), txn=txn)
            # ...but a cross-shard write under the same txn must refuse.
            try:
                router.write(ResultEntry("app", other, "bad"), txn=txn)
                crossed = False
            except SpaceError:
                crossed = True
        committed = router.count(ResultEntry())
        router.close()
        return crossed, committed

    crossed, committed = run(rt, proc)
    assert crossed is True
    assert committed == 1


def test_aborted_transaction_restores_the_take(rt, env):
    net, _, _ = env

    def proc():
        router = make_router(net)
        router.write(TaskEntry("app", 5, "x"))
        txn = router.transaction(timeout_ms=10_000.0)
        assert router.take(TaskEntry(task_id=5), txn=txn,
                           timeout_ms=100.0) is not None
        txn.abort()
        back = router.take(TaskEntry(task_id=5), timeout_ms=100.0)
        router.close()
        return back is not None

    assert run(rt, proc) is True


def test_batch_prefetch_under_txn_single_rpc_cycle(rt, env):
    """The worker steady-state: one batch writes the previous result and
    prefetches the next tasks under a fresh shard-local transaction."""
    net, _, _ = env

    def proc():
        router = make_router(net)
        router.write_all([TaskEntry("app", i, i) for i in range(8)])
        txn = router.transaction(timeout_ms=10_000.0)
        batch = router.batch()
        batch.take_multiple(TaskEntry(), 3, txn=txn, timeout_ms=1_000.0)
        got = batch.flush()[-1]
        taken = [e.task_id for e in got]
        # Commit the txn and write a result in the next batch.
        batch = router.batch()
        batch.commit(txn)
        batch.write(ResultEntry("app", taken[0], "r"))
        batch.flush()
        count = router.count(ResultEntry())
        remaining = router.count(TaskEntry())
        router.close()
        shards = {router.ring.shard_for(i) for i in taken}
        return taken, shards, count, remaining

    taken, shards, results, remaining = run(rt, proc)
    # The transaction is shard-local, so the prefetch drains ONE shard:
    # up to 3 entries, all from the same partition.
    assert 1 <= len(taken) <= 3
    assert len(shards) == 1
    assert results == 1
    assert remaining == 8 - len(taken)


def test_single_shard_router_passthrough(rt):
    """shards=1 degenerates to plain proxy semantics (blocking timeouts
    pass through; no scatter machinery)."""
    net = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0,
                                           per_kb_ms=0.0))
    address = Address("solo", 4355)
    space = JavaSpace(rt)
    SpaceServer(rt, space, net, address).start()

    def proc():
        router = ShardRouter(net, "client", [address])
        router.write(TaskEntry("app", 1, "only"))
        entry = router.take(TaskEntry(), timeout_ms=100.0)
        empty = router.take(TaskEntry(), timeout_ms=10.0)
        router.close()
        return entry.payload, empty

    payload, empty = run(rt, proc)
    assert payload == "only"
    assert empty is None


def test_proxy_exists_blocks_without_carrying_the_entry(rt, env):
    net, _, _ = env

    def proc():
        writer = SpaceProxy(net, "writer", ADDRESSES[0])
        watcher = SpaceProxy(net, "watcher", ADDRESSES[0])
        seen = {}

        def watch():
            t0 = rt.now()
            seen["hit"] = watcher.exists(TaskEntry(), timeout_ms=5_000.0)
            seen["waited"] = rt.now() - t0

        watch_proc = rt.spawn(watch, name="watch")
        rt.sleep(40.0)
        writer.write(TaskEntry("app", 1, "fat" * 1000))
        watch_proc.join()
        # Non-consuming: the entry is still there.
        still = writer.take_if_exists(TaskEntry())
        writer.close()
        watcher.close()
        return seen["hit"], seen["waited"], still is not None

    hit, waited, still = run(rt, proc)
    assert hit is True
    assert waited >= 40.0
    assert still is True


def test_entries_without_shard_key_go_to_class_home_shard(rt, env):
    net, spaces, _ = env

    def proc():
        router = make_router(net)
        # task_id=None → shard_key() None → class-home shard.
        for _ in range(4):
            router.write(TaskEntry("app", None, "keyless"))
        router.close()
        return [space.count(TaskEntry()) for space in spaces]

    counts = run(rt, proc)
    assert sorted(counts) == [0, 0, 0, 4]  # all on one (stable) home shard
