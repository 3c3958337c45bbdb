"""Epoch fencing: WAL epochs, lease bounds, the double-promotion race,
and synchronous-replication commit gating."""

from __future__ import annotations

import os

import pytest

from repro.core.metrics import Metrics
from repro.errors import ConnectionClosedError, FencedError
from repro.jini.join import JoinManager
from repro.jini.lookup import LookupService, ServiceItem
from repro.net.address import Address
from repro.net.network import Network
from repro.runtime import SimulatedRuntime
from repro.tuplespace.durable import DurableSpace, HotStandby
from repro.tuplespace.entry import Entry
from repro.tuplespace.failover import SpaceSupervisor
from repro.tuplespace.proxy import SpaceProxy, SpaceServer
from repro.tuplespace.wal import CommitRecord, FileWalStore, WriteAheadLog
from repro.util.codec import encode_entry

PRIMARY = Address("master", 9100)
STANDBY = Address("master", 9101)
REGISTRAR = Address("master", 9200)
#: Primary on its own host, so pause/partition faults hit it alone.
REMOTE_PRIMARY = Address("phost", 9100)


class Point(Entry):
    def __init__(self, x=None, y=None) -> None:
        self.x = x
        self.y = y


@pytest.fixture
def runtime():
    rt = SimulatedRuntime()
    yield rt
    rt.shutdown()


def run(runtime, fn, name="test-proc"):
    proc = runtime.kernel.spawn(fn, name=name)
    runtime.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


# -- WAL epoch durability ---------------------------------------------------


def test_file_store_epoch_round_trips_across_reopen(tmp_path):
    path = tmp_path / "wal"
    store = FileWalStore(path)
    assert store.epoch == 0
    store.set_epoch(3)
    store.set_epoch(1)              # epochs never move backwards
    assert store.epoch == 3
    assert FileWalStore(path).epoch == 3


def test_record_carried_epoch_adopted_on_replay(tmp_path):
    path = tmp_path / "wal"
    store = FileWalStore(path)
    store.append(CommitRecord(1, (), epoch=5))
    # Even with the sidecar gone (e.g. an old-layout log), replay must
    # adopt the highest epoch any record committed under.
    os.remove(os.fspath(path) + ".epoch")
    again = FileWalStore(path)
    assert again.epoch == 5
    assert again.last_lsn() == 1


def test_wal_append_stamps_the_current_epoch():
    wal = WriteAheadLog()
    assert wal.append(()).epoch == 0
    wal.set_epoch(2)
    assert wal.append(()).epoch == 2
    assert wal.bump_epoch() == 3
    assert wal.append(()).epoch == 3


def test_recovered_space_keeps_its_fencing_epoch(runtime, tmp_path):
    path = tmp_path / "wal"

    def scenario():
        space = DurableSpace(runtime, name="d",
                             wal=WriteAheadLog(FileWalStore(path)))
        space.wal.bump_epoch()
        space.wal.bump_epoch()
        space.write(Point(1, 1))
        # Crash: discard the process, keep the disk.
        recovered = DurableSpace.recover(runtime, FileWalStore(path),
                                         name="d")
        assert recovered.wal.epoch == 2
        assert recovered.take(Point(1, 1), timeout_ms=0.0) is not None

    run(runtime, scenario)


# -- lease renewal bounds ---------------------------------------------------


def test_ping_renewal_is_bounded_by_the_supervisor_clock(runtime):
    network = Network(runtime)
    space = DurableSpace(runtime, name="primary")
    server = SpaceServer(runtime, space, network, PRIMARY)
    server.fencing = True
    server.start()

    def scenario():
        server.grant_lease(300.0)           # expires at t=300
        conn = network.connect("sup", PRIMARY)
        # A renewal bound below the current expiry never shortens it.
        conn.send({"op": "ping",
                   "args": {"renew_lease": True, "valid_until": 150.0}})
        assert conn.receive(timeout_ms=1_000.0)["ok"]
        assert server._lease_expires == 300.0
        # A later bound extends exactly to the supervisor's clock — not
        # to arrival time + lease_ms, or a renewal that crawled through
        # a slow link would grant more lease than the supervisor waits
        # out before promoting.
        conn.send({"op": "ping",
                   "args": {"renew_lease": True, "valid_until": 450.0}})
        assert conn.receive(timeout_ms=1_000.0)["ok"]
        assert server._lease_expires == 450.0
        # A renewal without a bound extends nothing: arrival time +
        # lease_ms (here ≈ 500) is exactly the grant a slow link inflates.
        runtime.sleep(200.0)
        conn.send({"op": "ping", "args": {"renew_lease": True}})
        assert conn.receive(timeout_ms=1_000.0)["ok"]
        assert server._lease_expires == 450.0
        conn.close()
        server.stop(drain_ms=0.0)

    run(runtime, scenario)


def test_expired_lease_refuses_renewal_and_fences_commits(runtime):
    network = Network(runtime)
    space = DurableSpace(runtime, name="primary")
    server = SpaceServer(runtime, space, network, PRIMARY)
    server.fencing = True
    server.start()

    def scenario():
        server.grant_lease(100.0)
        runtime.sleep(200.0)                # lease ran out at t=100
        conn = network.connect("sup", PRIMARY)
        conn.send({"op": "ping",
                   "args": {"renew_lease": True,
                            "valid_until": runtime.now() + 500.0}})
        reply = conn.receive(timeout_ms=1_000.0)
        # A stale renewal cannot resurrect a self-fenced primary, and
        # the reply says so — the supervisor promotes on this signal.
        assert reply["ok"] and reply["value"]["lease_expired"]
        assert server._lease_expires == 100.0
        conn.close()
        proxy = SpaceProxy(network, "client", PRIMARY)
        with pytest.raises(FencedError):
            proxy.write(Point(1, 1))
        assert server.fenced_rpcs >= 1
        proxy.close()
        server.stop(drain_ms=0.0)

    run(runtime, scenario)


# -- the double-promotion race ----------------------------------------------


def test_double_promotion_race_fences_the_old_primary(runtime):
    """Primary stalls past its lease, the standby is promoted, the old
    primary wakes: its next commit must be fenced with no side effects."""
    network = Network(runtime)
    space = DurableSpace(runtime, name="primary")
    server = SpaceServer(runtime, space, network, PRIMARY)
    server.fencing = True
    server.start()
    standby = HotStandby(runtime, network, "master", primary_address=PRIMARY,
                         address=STANDBY)
    standby.start()

    def scenario():
        server.grant_lease(300.0)
        proxy = SpaceProxy(network, "client", PRIMARY)
        proxy.write(Point(1, 0))
        runtime.sleep(100.0)
        assert standby.space.wal.last_lsn == 1
        # The primary stalls (GC pause): no renewal arrives for longer
        # than the lease.  The supervisor waits the lease out, then
        # promotes the standby under a bumped epoch.
        runtime.sleep(400.0)
        promoted = standby.promote()
        assert standby.space.wal.epoch == 1
        # Old primary wakes and tries to acknowledge its next commit:
        # fenced by its own expired lease, before any side effect.
        with pytest.raises(FencedError):
            proxy.write(Point(2, 0))
        assert server.fenced_rpcs == 1
        assert space.wal.last_lsn == 1          # the write never happened
        # A client that already talked to the new primary stamps epoch 1;
        # the stamp alone proves to the old primary it was superseded.
        conn = network.connect("client2", PRIMARY)
        conn.send({"op": "write", "epoch": 1,
                   "args": {"entry_data": encode_entry(Point(3, 0)),
                            "lease_ms": float("inf"),
                            "txn_id": None}})
        reply = conn.receive(timeout_ms=1_000.0)
        assert reply["ok"] is False
        assert reply["type"] == "FencedError"
        assert server.superseded
        conn.close()
        # Meanwhile the promoted server serves the replica.
        assert promoted.epoch == 1
        p2 = SpaceProxy(network, "client", STANDBY)
        assert p2.take(Point(1, 0), timeout_ms=0.0) is not None
        p2.write(Point(9, 9))
        assert standby.space.wal.epoch == 1
        p2.close()
        proxy.close()
        standby.stop()
        server.stop(drain_ms=0.0)

    run(runtime, scenario)


def test_supervised_promotion_waits_out_the_inflight_lease(runtime):
    """Under a pause the supervisor cannot know whether its renewals got
    through, so promotion must wait out the last bound put on the wire."""
    network = Network(runtime)
    metrics = Metrics(runtime)
    space = DurableSpace(runtime, name="primary")
    server = SpaceServer(runtime, space, network, REMOTE_PRIMARY)
    server.fencing = True
    server.start()
    standby = HotStandby(runtime, network, "master",
                         primary_address=REMOTE_PRIMARY, address=STANDBY,
                         metrics=metrics)
    standby.start()
    lookup = LookupService(runtime, network, REGISTRAR)
    lookup.start()
    item = ServiceItem("space:test", REMOTE_PRIMARY, {"type": "JavaSpaces"})
    join = JoinManager(runtime, network, "master", REGISTRAR, item,
                       lease_ms=float("inf"))

    def scenario():
        join.start()
        supervisor = SpaceSupervisor(
            runtime, network, "master", standby,
            primary_address=REMOTE_PRIMARY, registrar=REGISTRAR,
            service_item=item, heartbeat_ms=100.0, max_misses=3,
            old_registration_id=join.registration_id, metrics=metrics,
        )
        server.grant_lease(supervisor.lease_ms)
        supervisor.start()
        proxy = SpaceProxy(network, "client", REMOTE_PRIMARY)
        proxy.write(Point(1, 0))
        runtime.sleep(550.0)
        assert not supervisor.failed_over
        # GC-pause the primary's host.  Probes are *held*, not refused —
        # each renewal may still land when the pause lifts, so the
        # supervisor must assume the worst about every one it sent.
        network.pause("phost")
        runtime.sleep(2_000.0)
        assert supervisor.failed_over
        waits = metrics.events_named("failover-lease-wait")
        assert waits and waits[0][1]["wait_ms"] > 0
        misses = metrics.events_named("primary-heartbeat-miss")
        promoted = metrics.events_named("standby-promoted")
        assert misses and promoted
        last_miss_t = max(t for t, _ in misses)
        # Without the wait, promotion happens at the third miss; with
        # it, strictly after the last renewal bound (send + lease_ms).
        assert promoted[0][0] >= last_miss_t + 200.0
        # Pause lifts: held renewals are refused (the lease is long
        # expired), the held fence order lands, and the deposed primary
        # demotes into a resyncing standby.
        network.resume("phost")
        runtime.sleep(300.0)
        assert server.superseded
        names = [n for _, n, _ in metrics.events]
        assert "primary-fenced" in names
        assert "standby-rejoining" in names
        # The deposed primary is still draining its old connections:
        # a commit riding one of them is fenced, not served.
        with pytest.raises(FencedError):
            proxy.write(Point(9, 9))
        assert server.fenced_rpcs >= 1
        proxy.close()
        # The rejoined standby anti-entropy-syncs from the new primary.
        p2 = SpaceProxy(network, "client", STANDBY)
        p2.write(Point(2, 0))
        runtime.sleep(1_500.0)
        rejoined = supervisor._spawned_standbys[0]
        got = sorted(p.x for p in rejoined.space.contents(Point()))
        assert got == [1, 2]
        p2.close()
        supervisor.stop()
        standby.stop()
        lookup.stop()
        server.stop(drain_ms=0.0)

    run(runtime, scenario)


# -- synchronous replication gating -----------------------------------------


def test_sync_replication_gates_commits_on_standby_ack(runtime):
    """With the primary's egress cut, a commit cannot be acknowledged:
    the client is dropped unanswered (indeterminate, checker-sound)."""
    network = Network(runtime)
    space = DurableSpace(runtime, name="primary")
    server = SpaceServer(runtime, space, network, REMOTE_PRIMARY)
    server.sync_replication = True
    server.repl_ack_timeout_ms = 500.0
    server.start()
    standby = HotStandby(runtime, network, "master",
                         primary_address=REMOTE_PRIMARY, address=STANDBY)
    standby.start()

    def scenario():
        proxy = SpaceProxy(network, "client", REMOTE_PRIMARY)
        proxy.write(Point(1, 0))
        runtime.sleep(300.0)
        assert standby.space.wal.last_lsn == 1
        # Silent egress cut: requests still arrive, but replication
        # batches (and client replies) vanish on the wire.
        network.partition("phost", "*")
        with pytest.raises(ConnectionClosedError):
            proxy.write(Point(2, 0))
        assert server.repl_stalls >= 1
        assert space.wal.last_lsn == 2          # committed server-side…
        assert standby.space.wal.last_lsn == 1  # …but never replicated
        network.heal_all_partitions()
        runtime.sleep(1_000.0)
        # After the heal the standby detects the LSN gap, re-bootstraps,
        # and commits flow (and are acknowledged) again.
        proxy2 = SpaceProxy(network, "client", REMOTE_PRIMARY)
        proxy2.write(Point(3, 0))
        runtime.sleep(500.0)
        assert space.wal.last_lsn == 3
        assert standby.space.wal.last_lsn == 3
        got = sorted(p.x for p in standby.space.contents(Point()))
        assert got == [1, 2, 3]
        proxy.close()
        proxy2.close()
        standby.stop()
        server.stop(drain_ms=0.0)

    run(runtime, scenario)


def test_feed_hanging_up_mid_wait_is_not_an_ack(runtime):
    """A primary cut off from its standby parks a co-hosted client's
    commit waiting for the replication ack.  When the standby is then
    promoted it hangs up the feed — and "no feed attached" must not
    release the parked commit as acknowledged: the promoted replica does
    not hold it.  (Seen as a phantom second take of a task in the
    4-shard ``partition:shard`` campaigns.)"""
    network = Network(runtime)
    space = DurableSpace(runtime, name="primary")
    server = SpaceServer(runtime, space, network, REMOTE_PRIMARY)
    server.sync_replication = True
    server.repl_ack_timeout_ms = 500.0
    server.start()
    standby = HotStandby(runtime, network, "master",
                         primary_address=REMOTE_PRIMARY, address=STANDBY)
    standby.start()

    def scenario():
        proxy = SpaceProxy(network, "phost", REMOTE_PRIMARY)  # loopback
        proxy.write(Point(1, 0))
        runtime.sleep(300.0)
        assert standby.space.wal.last_lsn == 1
        network.partition("phost", "master")   # records out: lost

        def promote_soon():
            runtime.sleep(100.0)
            standby.promote()                  # hangs up the feed

        runtime.spawn(promote_soon, name="promote")
        with pytest.raises(ConnectionClosedError):
            proxy.write(Point(2, 0))
        assert server.repl_stalls == 1
        assert [p.x for p in standby.space.contents(Point())] == [1]
        proxy.close()
        standby.stop()
        server.stop(drain_ms=0.0)

    run(runtime, scenario)
