"""Hot-standby replication and supervisor-driven failover."""

from __future__ import annotations

import pytest

from repro.core.metrics import Metrics
from repro.errors import ConnectionClosedError, ConnectionRefusedError_
from repro.jini.join import JoinManager
from repro.jini.lookup import LookupService, ServiceItem
from repro.net.address import Address
from repro.net.network import Network
from repro.runtime import SimulatedRuntime
from repro.tuplespace.durable import DurableSpace, HotStandby
from repro.tuplespace.entry import Entry
from repro.tuplespace.failover import (
    HEARTBEAT_MS,
    JiniSpaceLocator,
    SpaceSupervisor,
)
from repro.tuplespace.proxy import SpaceProxy, SpaceServer

PRIMARY = Address("master", 9100)
STANDBY = Address("master", 9101)
REGISTRAR = Address("master", 9200)


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


def make_primary(runtime, network):
    space = DurableSpace(runtime, name="primary")
    server = SpaceServer(runtime, space, network, PRIMARY)
    server.start()
    return space, server


def make_standby(runtime, network, metrics=None):
    standby = HotStandby(runtime, network, "master", primary_address=PRIMARY,
                         address=STANDBY, metrics=metrics)
    standby.start()
    return standby


def test_standby_bootstraps_and_tails_the_primary(runtime):
    network = Network(runtime)
    space, server = make_primary(runtime, network)
    standby = make_standby(runtime, network)

    def scenario():
        for i in range(5):
            space.write(Point(i, 0))
        runtime.sleep(100.0)           # let the feed deliver
        space.take(Point(0, 0), timeout_ms=0.0)
        runtime.sleep(100.0)
        assert standby.caught_up
        assert standby.space.wal.last_lsn == space.wal.last_lsn
        got = sorted(p.x for p in standby.space.contents(Point()))
        assert got == [1, 2, 3, 4]
        standby.stop()
        server.stop(drain_ms=0.0)

    run(runtime, scenario)


def test_standby_reconnect_after_feed_drop_does_not_regress(runtime):
    network = Network(runtime)
    space, server = make_primary(runtime, network)
    standby = make_standby(runtime, network)

    def scenario():
        space.write(Point(1, 0))
        runtime.sleep(100.0)
        # Drop every server connection (including the feed), then restart.
        server.crash()
        server.start()
        space.write(Point(2, 0))
        runtime.sleep(1_000.0)         # standby retries and re-bootstraps
        got = sorted(p.x for p in standby.space.contents(Point()))
        assert got == [1, 2]
        assert standby.space.wal.last_lsn == space.wal.last_lsn
        standby.stop()
        server.stop(drain_ms=0.0)

    run(runtime, scenario)


def test_promotion_serves_the_replica(runtime):
    network = Network(runtime)
    space, server = make_primary(runtime, network)
    standby = make_standby(runtime, network)

    def scenario():
        for i in range(3):
            space.write(Point(i, 0))
        runtime.sleep(100.0)
        server.crash()
        promoted = standby.promote()
        assert standby.server is promoted
        proxy = SpaceProxy(network, "client", STANDBY)
        assert proxy.take(Point(1, 0), timeout_ms=0.0) is not None
        proxy.write(Point(9, 9))
        assert proxy.take(Point(9, 9), timeout_ms=0.0) is not None
        proxy.close()
        standby.stop()

    run(runtime, scenario)


def test_supervisor_promotes_and_reregisters_after_misses(runtime):
    network = Network(runtime)
    metrics = Metrics(runtime)
    space, server = make_primary(runtime, network)
    standby = make_standby(runtime, network, metrics=metrics)
    lookup = LookupService(runtime, network, REGISTRAR)
    lookup.start()
    item = ServiceItem("space:test", PRIMARY, {"type": "JavaSpaces"})
    join = JoinManager(network, "master", REGISTRAR, item)

    def scenario():
        join.start()
        space.write(Point(7, 7))
        supervisor = SpaceSupervisor(
            runtime, network, "master", standby,
            primary_address=PRIMARY, registrar=REGISTRAR, service_item=item,
            old_registration_id=join.registration_id, metrics=metrics,
        )
        supervisor.start()
        runtime.sleep(1_000.0)
        assert not supervisor.failovers      # healthy primary: no failover
        server.crash()
        runtime.sleep(1_000.0)
        assert supervisor.failovers

        # The lookup service now resolves to the standby's address…
        locator = JiniSpaceLocator(network, "client", REGISTRAR,
                                   {"type": "JavaSpaces"})
        assert locator() == STANDBY
        # …and a locator-equipped proxy pointed at the dead primary heals.
        proxy = SpaceProxy(network, "client", PRIMARY, locator=locator)
        try:
            proxy.take(Point(7, 7), timeout_ms=0.0)
        except (ConnectionClosedError, ConnectionRefusedError_):
            pass  # first dial hits the corpse; the reconnect rediscovers
        assert proxy.take(Point(7, 7), timeout_ms=0.0) is not None
        assert proxy.server_address == STANDBY
        proxy.close()
        supervisor.stop()
        standby.stop()
        lookup.stop()

    run(runtime, scenario)
    names = [name for _, name, _ in metrics.events]
    assert "primary-heartbeat-miss" in names
    assert "standby-promoted" in names
    assert "failover-complete" in names


def test_server_stop_drain_deadline_closes_lingering_connections(runtime):
    """A client that never hangs up must not keep a stopped server's
    session alive past the drain deadline."""
    network = Network(runtime)
    space = DurableSpace(runtime, name="drain")
    server = SpaceServer(runtime, space, network, PRIMARY)
    server.start()

    def scenario():
        proxy = SpaceProxy(network, "client", PRIMARY)
        assert proxy.ping()
        server.stop(drain_ms=200.0)     # proxy keeps its connection open
        runtime.sleep(500.0)
        with pytest.raises((ConnectionClosedError, ConnectionRefusedError_)):
            proxy.ping()
        proxy.close()

    run(runtime, scenario)
    assert not server._connections


# -- one probe per host pair -------------------------------------------------

SHARDS = 4
HEARTBEAT = HEARTBEAT_MS


class Cohosted:
    """``SHARDS`` primaries on one host (``phost``), their standbys and
    supervisors on another (``master``): the benchmark's shape, where
    every supervisor shares one probe round."""

    def __init__(self, runtime, primary_host="phost"):
        self.runtime = runtime
        self.network = Network(runtime)
        self.metrics = Metrics(runtime)
        self.lookup = LookupService(runtime, self.network, REGISTRAR)
        self.lookup.start()
        self.servers, self.standbys, self.supervisors = [], [], []
        self.primaries = [Address(primary_host, 9300 + 2 * i)
                          for i in range(SHARDS)]
        for i, primary in enumerate(self.primaries):
            server = SpaceServer(runtime, DurableSpace(runtime, f"shard{i}"),
                                 self.network, primary)
            server.fencing = True
            server.start()
            self.servers.append(server)
            standby = HotStandby(runtime, self.network, "master",
                                 primary_address=primary,
                                 address=Address("master", 9301 + 2 * i),
                                 metrics=self.metrics)
            standby.start()
            self.standbys.append(standby)

    def supervise(self):
        """Call from inside the simulation (registration is an RPC)."""
        for i, primary in enumerate(self.primaries):
            item = ServiceItem(f"space:{i}", primary,
                               {"type": "JavaSpaces", "shard": str(i)})
            join = JoinManager(self.network, "master", REGISTRAR, item)
            join.start()
            supervisor = SpaceSupervisor(
                self.runtime, self.network, "master", self.standbys[i],
                primary_address=primary, registrar=REGISTRAR,
                service_item=item,
                old_registration_id=join.registration_id,
                metrics=self.metrics)
            self.servers[i].grant_lease(supervisor.lease_ms)
            supervisor.start()
            self.supervisors.append(supervisor)

    def stop(self):
        for supervisor in self.supervisors:
            supervisor.stop()
        for standby in self.standbys:
            standby.stop()
        for server in self.servers:
            server.stop(drain_ms=0.0)
        self.lookup.stop()


def test_cohosted_primaries_share_one_probe_per_heartbeat(runtime):
    farm = Cohosted(runtime)

    def scenario():
        farm.supervise()
        runtime.sleep(50.0)             # replication bootstraps settle
        before = farm.network.stats["messages"]
        expiries = [server._lease_expires for server in farm.servers]
        runtime.sleep(10 * HEARTBEAT)
        rounds = farm.supervisors[0].probes
        assert 8 <= rounds <= 10
        # One request and one reply per round — not one pair per shard.
        assert farm.network.stats["messages"] - before == 2 * rounds
        for supervisor, server, old in zip(farm.supervisors, farm.servers,
                                           expiries):
            assert supervisor.probes == rounds
            assert supervisor.probe_misses == 0
            # Every lease was renewed, each by its own server's handler,
            # to exactly the bound its supervisor recorded at send time.
            assert server._lease_expires > old + 5 * HEARTBEAT
            assert server._lease_expires == supervisor._lease_valid_until
        endpoint = farm.servers[0]._endpoint
        assert endpoint is farm.servers[3]._endpoint
        assert endpoint.renewals == SHARDS * rounds
        farm.stop()

    run(runtime, scenario)


def test_killing_one_cohosted_primary_promotes_only_that_shard(runtime):
    farm = Cohosted(runtime)

    def scenario():
        farm.supervise()
        runtime.sleep(3.5 * HEARTBEAT)
        killed_at = runtime.now()
        farm.servers[1].crash()
        runtime.sleep(6 * HEARTBEAT)
        assert [s.failovers > 0 for s in farm.supervisors] == [
            False, True, False, False]
        events = farm.metrics.events
        misses = [(t, p) for t, n, p in events if n == "primary-heartbeat-miss"]
        # Exactly MAX_MISSES rounds, each told "dead" by the node's lease
        # endpoint — so no lease can be outstanding and none is waited for.
        assert [p["status"] for _, p in misses] == ["dead"] * 3
        assert not [n for _, n, _ in events if n == "failover-lease-wait"]
        promoted = [t for t, n, _ in events if n == "standby-promoted"]
        assert promoted == [misses[-1][0]]
        assert promoted[0] - killed_at < 3 * HEARTBEAT + 5.0
        # The other three kept renewing through the same rounds.
        now = runtime.now()
        for i in (0, 2, 3):
            assert farm.servers[i]._lease_expires > now
            assert farm.supervisors[i].probe_misses == 0
        farm.stop()

    run(runtime, scenario)


def test_killing_the_contact_primary_redials_the_next_one(runtime):
    farm = Cohosted(runtime)

    def scenario():
        farm.supervise()
        runtime.sleep(3.5 * HEARTBEAT)
        farm.servers[0].crash()         # the one the probe connection is to
        runtime.sleep(6 * HEARTBEAT)
        assert [s.failovers > 0 for s in farm.supervisors] == [
            True, False, False, False]
        statuses = [p["status"] for _, n, p in farm.metrics.events
                    if n == "primary-heartbeat-miss"]
        assert statuses == ["dead"] * 3
        for i in (1, 2, 3):
            assert farm.supervisors[i].probe_misses == 0
            assert farm.servers[i]._lease_expires > runtime.now()
        farm.stop()

    run(runtime, scenario)


def test_one_way_cut_records_every_bound_and_waits_it_out(runtime):
    """Replies cut, requests still arrive: every co-hosted primary keeps
    being renewed by probes its supervisor hears nothing back from, so
    each supervisor must already hold the bound that was on the wire and
    may not promote before it has passed."""
    farm = Cohosted(runtime)

    def scenario():
        farm.supervise()
        runtime.sleep(3.5 * HEARTBEAT)
        cut_at = runtime.now()
        farm.network.partition("phost", "master")       # replies vanish
        runtime.sleep(2.5 * HEARTBEAT)      # two lost rounds, none promoted
        for supervisor, server in zip(farm.supervisors, farm.servers):
            assert supervisor.probe_misses >= 1 and not supervisor.failovers
            # Renewed through the cut, by probes nobody saw answered —
            # and never past what its supervisor already assumes.
            assert (cut_at + supervisor.lease_ms < server._lease_expires
                    <= supervisor._lease_valid_until)
        runtime.sleep(10 * HEARTBEAT)
        assert all(s.failovers for s in farm.supervisors)
        events = farm.metrics.events
        statuses = {p["status"] for _, n, p in events
                    if n == "primary-heartbeat-miss"}
        assert statuses == {"lost"}
        waits = [p["wait_ms"] for _, n, p in events
                 if n == "failover-lease-wait"]
        assert len(waits) == SHARDS and min(waits) > 0
        first_promotion = min(t for t, n, _ in events
                              if n == "standby-promoted")
        # The last renewal that got through set each primary's expiry;
        # no replica served before that instant + 1 ms.
        assert first_promotion >= max(
            server._lease_expires for server in farm.servers) + 1.0
        farm.network.heal_all_partitions()
        farm.stop()

    run(runtime, scenario)


def test_paused_host_reads_lost_and_a_revived_expired_primary_fenced(runtime):
    farm = Cohosted(runtime)

    def scenario():
        farm.supervise()
        runtime.sleep(3.5 * HEARTBEAT)
        farm.network.pause("phost")
        runtime.sleep(2.2 * HEARTBEAT)  # one round sent, and timed out
        assert [s.probe_misses for s in farm.supervisors] == [1] * SHARDS
        statuses = [p["status"] for _, n, p in farm.metrics.events
                    if n == "primary-heartbeat-miss"]
        assert statuses == ["lost"] * SHARDS
        # Stop watching (no promotion in this test), let every lease run
        # out behind the pause, then look again at the revived host.
        for supervisor in farm.supervisors:
            supervisor.stop()
        runtime.sleep(10 * HEARTBEAT)
        farm.network.resume("phost")
        runtime.sleep(HEARTBEAT)
        expired = [server._lease_expires for server in farm.servers]
        assert all(runtime.now() > at for at in expired)
        conn = farm.network.connect("master", farm.primaries[0])
        bound = runtime.now() + 300.0
        conn.send({"op": "ping", "args": {
            "renew_lease": True, "valid_until": bound,
            "peers": {a.port: bound for a in farm.primaries[1:]}}})
        pong = conn.receive(timeout_ms=50.0)["value"]
        # Reachable again, but self-fenced: the supervisor reads "fenced"
        # for each, and no renewal resurrected an expired lease.
        assert pong["lease_expired"]
        assert pong["peers"] == {a.port: "lease_expired"
                                 for a in farm.primaries[1:]}
        assert [server._lease_expires for server in farm.servers] == expired
        conn.close()
        farm.stop()

    run(runtime, scenario)


def test_shared_renewal_never_extends_a_superseded_server(runtime):
    farm = Cohosted(runtime)

    def scenario():
        runtime.sleep(10.0)
        for server in farm.servers:
            server.grant_lease(300.0)
        farm.servers[2].superseded = True
        before = farm.servers[2]._lease_expires
        conn = farm.network.connect("master", farm.primaries[0])
        bound = runtime.now() + 900.0
        peers = {a.port: bound for a in farm.primaries[1:]}
        peers[9999] = bound                 # nothing serves there
        conn.send({"op": "ping", "args": {
            "renew_lease": True, "valid_until": bound, "peers": peers}})
        pong = conn.receive(timeout_ms=50.0)["value"]
        assert pong["peers"] == {
            farm.primaries[1].port: "ok", farm.primaries[2].port: "superseded",
            farm.primaries[3].port: "ok", 9999: "dead"}
        assert farm.servers[2]._lease_expires == before
        # The others were extended to the stamped bound — never beyond.
        for i in (0, 1, 3):
            assert farm.servers[i]._lease_expires == bound
        conn.close()
        farm.stop()

    run(runtime, scenario)
