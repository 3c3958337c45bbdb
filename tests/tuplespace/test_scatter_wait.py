"""The event-driven wildcard wait of :class:`ShardRouter`.

A blocked wildcard ``take``/``take_multiple``/txn prefetch sleeps on
``notify`` events, not on polls.  The lockstep property drives N real
shard servers with random writes on random shards while one consumer
issues random wildcard calls with deadlines, and checks the three things
the design promises: every entry is taken exactly once, no call sleeps
past a match (nor past its deadline), and nothing leaves the consumer's
host — no RPC, no helper process — while it is blocked.  The example
tests cover what a property over healthy servers cannot: a registration
lost to a standby promotion, and an event lost to a partition.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.net import Address, LatencyModel, Network
from repro.runtime import SimulatedRuntime
from repro.tuplespace import HashRing, JavaSpace, ShardRouter, SpaceServer
from repro.tuplespace.durable import DurableSpace, HotStandby
from repro.tuplespace.proxy import RecoveryPolicy
from tests.tuplespace.entries import TaskEntry

N_SHARDS = 4
ADDRESSES = [Address(f"shard{i}", 4255) for i in range(N_SHARDS)]
RING = HashRing(N_SHARDS)
#: Task ids that route to each shard, so a write can aim at one.
IDS = [[i for i in range(400) if RING.shard_for(i) == shard]
       for shard in range(N_SHARDS)]
#: One-way latency is 0.5 ms, so an RPC is 1 ms.  The slowest thing a
#: call does between "an entry is there" and "I have it" is the first
#: blocking call's full scan under a transaction: one registration per
#: shard, then per empty shard a create+take RPC and an abort RPC.
SLACK_MS = 3.0 * N_SHARDS + 2.0


def run(rt, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


def start_shards(rt, net):
    spaces = [JavaSpace(rt) for _ in ADDRESSES]
    for space, address in zip(spaces, ADDRESSES):
        SpaceServer(rt, space, net, address).start()
    return spaces


def fixed_latency_network(rt):
    return Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0,
                                            per_kb_ms=0.0))


class Wiretap:
    """What left ``host`` (messages it sent, processes spawned in its
    name), and when its router was blocked in the local wait."""

    def __init__(self, rt, net, router, host):
        self.sent: list[float] = []
        self.spawned: list[tuple[float, str]] = []
        self.blocked: list[tuple[float, float]] = []
        send, spawn, wait = net._send_stream, rt.spawn, router._await_hint

        def tapped_send(sender, receiver, payload):
            if sender.local.host == host:
                self.sent.append(rt.now())
            return send(sender, receiver, payload)

        def tapped_spawn(fn, name="proc"):
            if host in name:
                self.spawned.append((rt.now(), name))
            return spawn(fn, name=name)

        def tapped_wait(*args):
            start = rt.now()
            try:
                return wait(*args)
            finally:
                self.blocked.append((start, rt.now()))

        net._send_stream = tapped_send
        rt.spawn = tapped_spawn
        router._await_hint = tapped_wait

    def leaks(self) -> list:
        """Anything that left the host strictly inside a blocked wait."""
        return [(start, end, what)
                for start, end in self.blocked
                for what in ([t for t in self.sent if start < t < end]
                             + [s for s in self.spawned if start < s[0] < end])]


writes_st = st.lists(
    st.tuples(st.sampled_from([0.0, 3.0, 17.0, 60.0]),      # pause before
              st.integers(0, N_SHARDS - 1),                 # target shard
              st.integers(1, 3)),                           # entries
    max_size=8)
calls_st = st.lists(
    st.tuples(st.sampled_from(["take", "take_multiple", "txn"]),
              st.sampled_from([0.0, 5.0, 40.0, 150.0]),     # timeout_ms
              st.integers(1, 4),                            # max_entries
              st.sampled_from([0.0, 2.0, 25.0])),           # pause before
    min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(writes=writes_st, calls=calls_st)
# Fewer entries wanted than shards to ask: every shard still gets asked.
@example(writes=[(0.0, 0, 1)], calls=[("take_multiple", 0.0, 1, 25.0)])
def test_wildcard_wait_lockstep(writes, calls):
    rt = SimulatedRuntime()
    try:
        net = fixed_latency_network(rt)
        start_shards(rt, net)
        producer = ShardRouter(net, "producer", ADDRESSES, ring=RING)
        consumer = ShardRouter(net, "consumer", ADDRESSES, ring=RING)
        tap = Wiretap(rt, net, consumer, "consumer")
        fresh = [iter(ids) for ids in IDS]
        visible_by: dict[int, float] = {}   # id → when its write returned
        log: list[tuple] = []               # (timeout, t0, t1, ids)

        def produce():
            for pause, shard, count in writes:
                rt.sleep(pause)
                ids = [next(fresh[shard]) for _ in range(count)]
                producer.write_all([TaskEntry("app", i, None) for i in ids])
                for i in ids:
                    visible_by[i] = rt.now()

        def consume():
            template = TaskEntry()
            for kind, timeout, cap, pause in calls:
                rt.sleep(pause)
                t0 = rt.now()
                if kind == "take":
                    entry = consumer.take(template, timeout_ms=timeout)
                    got = [] if entry is None else [entry]
                elif kind == "take_multiple":
                    got = consumer.take_multiple(template, cap,
                                                 timeout_ms=timeout)
                else:
                    with consumer.transaction() as txn:
                        got = consumer.take_multiple(template, cap, txn=txn,
                                                     timeout_ms=timeout)
                assert len(got) <= cap
                log.append((timeout, t0, rt.now(), [e.task_id for e in got]))

        def scenario():
            writer = rt.spawn(produce, name="produce")
            consume()
            writer.join()
            leftover = []
            while True:
                batch = consumer.take_multiple(TaskEntry(), 64, timeout_ms=0.0)
                if not batch:
                    break
                leftover.extend(e.task_id for e in batch)
            producer.close()
            consumer.close()
            return leftover

        leftover = run(rt, scenario)

        taken = [i for _, _, _, ids in log for i in ids]
        assert sorted(taken + leftover) == sorted(visible_by), \
            "every entry written is taken exactly once"
        consumed: set[int] = set()
        for timeout, t0, t1, ids in log:
            waiting = [at for i, at in visible_by.items()
                       if i not in consumed]
            if ids:
                # Had a match: returned as soon as the first one showed.
                assert t1 <= max(t0, min(waiting)) + SLACK_MS
            else:
                # Came back empty: not before the deadline had passed,
                # not long after it, and nothing had been sitting there.
                assert t0 + timeout <= t1 <= t0 + timeout + SLACK_MS
                assert not [at for at in waiting if at <= t1 - SLACK_MS]
            consumed.update(ids)
        assert tap.leaks() == [], "zero RPCs and spawns while blocked"
    finally:
        rt.shutdown()


def test_blocked_wait_is_silent_and_an_event_ends_it(rt):
    """The deterministic core of the property, with numbers: a 10 s wait
    costs the four registrations and one scan up front, nothing while
    blocked, and one take when the event arrives."""
    net = fixed_latency_network(rt)
    start_shards(rt, net)
    consumer = ShardRouter(net, "consumer", ADDRESSES, ring=RING)
    producer = ShardRouter(net, "producer", ADDRESSES, ring=RING)
    tap = Wiretap(rt, net, consumer, "consumer")

    def scenario():
        def late_write():
            rt.sleep(5_000.0)
            producer.write(TaskEntry("app", IDS[2][0], "late"))

        rt.spawn(late_write, name="late-write")
        t0 = rt.now()
        entry = consumer.take(TaskEntry(), timeout_ms=10_000.0)
        waited = rt.now() - t0
        producer.close()
        consumer.close()
        return entry.payload, waited

    payload, waited = run(rt, scenario)
    assert payload == "late"
    assert 5_000.0 < waited < 5_000.0 + SLACK_MS
    assert tap.leaks() == []
    # 4 notify + 4 empty takes, then the one take the event pointed at.
    assert len(tap.sent) == 2 * N_SHARDS + 1


def test_lost_event_is_recovered_by_the_deadline_rescan(rt):
    """An event dropped by a partition costs the rest of the wait, not
    the entry: the deadline's full rescan finds it."""
    net = fixed_latency_network(rt)
    spaces = start_shards(rt, net)
    consumer = ShardRouter(net, "consumer", ADDRESSES, ring=RING)

    def scenario():
        def cut_write_heal():
            rt.sleep(100.0)
            net.partition_pair("shard1", "consumer")   # events vanish
            spaces[1].write(TaskEntry("app", IDS[1][0], "unheard"))
            rt.sleep(100.0)
            net.heal_all_partitions()

        rt.spawn(cut_write_heal, name="cut")
        t0 = rt.now()
        entry = consumer.take(TaskEntry(), timeout_ms=1_000.0)
        waited = rt.now() - t0
        consumer.close()
        return entry.payload, waited

    payload, waited = run(rt, scenario)
    assert payload == "unheard"
    assert 1_000.0 <= waited < 1_000.0 + SLACK_MS


def test_registration_lost_to_promotion_is_reestablished(rt):
    """Shard 0's primary dies and its standby is promoted: the promoted
    server never heard of the router's registration.  The next wait
    registers again (re-discovering the address), and an entry written
    to the promoted shard wakes it at once, not at its deadline."""
    net = fixed_latency_network(rt)
    standby_address = Address("shard0b", 4255)
    primary = SpaceServer(rt, DurableSpace(rt, name="s0"), net, ADDRESSES[0])
    primary.start()
    for address in ADDRESSES[1:]:
        SpaceServer(rt, JavaSpace(rt), net, address).start()
    standby = HotStandby(rt, net, "shard0b", primary_address=ADDRESSES[0],
                         address=standby_address)
    standby.start()
    where = {"shard0": ADDRESSES[0]}
    locators = [lambda: where["shard0"]] + [None] * (N_SHARDS - 1)
    consumer = ShardRouter(net, "consumer", ADDRESSES, ring=RING,
                           locators=locators, recovery=RecoveryPolicy())
    tap = Wiretap(rt, net, consumer, "consumer")

    def scenario():
        # A first wait registers on all four primaries and times out.
        assert consumer.take(TaskEntry(), timeout_ms=50.0) is None
        registered = list(consumer._watches[TaskEntry].registrations)
        primary.crash()
        promoted = standby.promote()
        where["shard0"] = standby_address
        rt.sleep(1.0)   # the dead primary's hang-up reaches the client

        def write_to_promoted():
            rt.sleep(400.0)
            promoted.space.write(TaskEntry("app", IDS[0][0], "post-failover"))

        rt.spawn(write_to_promoted, name="late-write")
        t0 = rt.now()
        entry = consumer.take(TaskEntry(), timeout_ms=5_000.0)
        waited = rt.now() - t0
        again = list(consumer._watches[TaskEntry].registrations)
        consumer.close()
        standby.stop()
        return entry.payload, waited, registered, again

    payload, waited, registered, again = run(rt, scenario)
    assert payload == "post-failover"
    assert 400.0 < waited < 400.0 + SLACK_MS       # woken, not timed out
    assert consumer._proxies[0].server_address == standby_address
    assert again[1:] == registered[1:]              # healthy shards: kept
    assert tap.leaks() == []
