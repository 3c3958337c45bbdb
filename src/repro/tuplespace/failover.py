"""Failover plumbing: locate the space via Jini, promote the standby.

:class:`JiniSpaceLocator` is the client half — a callable handed to
:class:`~repro.tuplespace.proxy.SpaceProxy` as its ``locator`` so a
reconnect asks the lookup service *where the space lives now* instead of
hammering a dead address.

:class:`SpaceSupervisor` is the control half — it heartbeats the primary
:class:`~repro.tuplespace.proxy.SpaceServer` (one probe per heartbeat and
*host pair*, shared by every supervisor watching a primary on that host:
:class:`_HostProbe`) and, after ``MAX_MISSES`` consecutive missed probes,
promotes the :class:`~repro.tuplespace.durable.HotStandby`,
cancels the primary's lookup registration and registers the standby's
address under the same service attributes.  From that point every
locator-equipped proxy re-discovers the new primary on its next
reconnect.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from repro.errors import (
    ConnectionClosedError,
    ConnectionRefusedError_,
    LookupError_,
    NetworkError,
)
from repro.jini.join import LookupClient
from repro.jini.lookup import ServiceItem
from repro.net.address import Address
from repro.net.network import Network, StreamSocket
from repro.runtime.base import Runtime
from repro.tuplespace.durable import HotStandby
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.proxy import SpaceServer
from repro.tuplespace.transaction import TransactionManager

__all__ = ["JiniSpaceLocator", "SpaceSupervisor", "HEARTBEAT_MS", "MAX_MISSES"]

#: Supervisor probe period (and each probe's reply deadline), and the
#: consecutive missed probes that trigger promotion.  The deployment
#: sizes the primary's first lease and paces its masters' space retries
#: by the same two figures.
HEARTBEAT_MS = 250.0
MAX_MISSES = 3


class JiniSpaceLocator:
    """Resolve the space's current address through the lookup service.

    Returns the *highest-epoch* matching registration (ties broken by
    recency) — after a failover both the stale primary item (until its
    cancel/lease-expiry lands) and the standby item may briefly coexist.
    Registrations that never carried an ``epoch`` attribute all rank as
    epoch 0, which degrades to the original newest-wins rule.

    After each successful lookup, :attr:`epoch` holds the chosen
    registration's epoch; a :class:`~repro.tuplespace.proxy.SpaceProxy`
    adopts it on re-discovery and stamps it on every request, which is
    how the client side of the fence stays current.
    """

    def __init__(self, network: Network, host: str, registrar: Address,
                 query: dict[str, Any],
                 call_timeout_ms: Optional[float] = 5_000.0) -> None:
        self.network = network
        self.host = host
        self.registrar = registrar
        self.query = query
        self.call_timeout_ms = call_timeout_ms
        #: Epoch of the last registration returned, if it carried one.
        self.epoch: Optional[int] = None

    def __call__(self) -> Optional[Address]:
        client = LookupClient(self.network, self.host, self.registrar,
                              call_timeout_ms=self.call_timeout_ms)
        try:
            items = client.lookup(self.query)
        finally:
            client.close()
        if not items:
            return None
        best = max(
            enumerate(items),
            key=lambda pair: (int(pair[1].attributes.get("epoch", 0)),
                              pair[0]),
        )[1]
        if "epoch" in best.attributes:
            self.epoch = int(best.attributes["epoch"])
        return best.service


class _HostProbe:
    """The heartbeat of every supervisor on one host towards the
    primaries of one host: one event-driven probe round per
    ``HEARTBEAT_MS`` — no sleeping process, and not one ping per shard.

    A round is one ``ping`` on a standing connection to the first watched
    primary that accepts a dial; the other primaries' lease bounds ride
    along as ``peers`` and that node's lease endpoint answers for each
    from its own server (:class:`~repro.tuplespace.proxy.LeaseEndpoint`).
    Every bound is stamped from this host's clock when the round starts
    and recorded by its supervisor the moment the message is on the wire.
    With one primary per host the round *is* the old per-supervisor ping:
    same message, same instants.  The next round is scheduled
    ``HEARTBEAT_MS`` after this one resolved.
    """

    def __init__(self, supervisor: "SpaceSupervisor") -> None:
        self.runtime = supervisor.runtime
        self.network = supervisor.network
        self.host = supervisor.host
        self.primary_host = supervisor.primary_address.host
        #: Watching supervisors, in joining order (the dial order).
        self.members: list["SpaceSupervisor"] = []
        self._conn: Optional[StreamSocket] = None
        self._contact: Optional[Address] = None     # whom _conn reaches
        self._asked: list["SpaceSupervisor"] = []   # awaiting this round
        self._early: dict[int, str] = {}    # settled by the dial, by port
        self._reused = False        # the round went out on an old connection
        self._timer: Any = None     # set while a round is on the wire
        self._next: Any = None      # set while the next round is due
        #: Rounds, replies and timeouts are events; on the threaded
        #: runtime they arrive on timer threads.
        self._lock = self.runtime.lock()

    def join(self, supervisor: "SpaceSupervisor") -> None:
        with self._lock:
            self.members.append(supervisor)
            if self._next is None and self._timer is None:
                # First round one heartbeat after the event that used to
                # start the watch process.
                self._next = self.runtime.call_later(0.0, self._schedule)

    def leave(self, supervisor: "SpaceSupervisor") -> None:
        with self._lock:
            if supervisor in self.members:
                self.members.remove(supervisor)
            if supervisor in self._asked:
                self._asked.remove(supervisor)
            if not self.members and self._next is not None:
                self._next.cancel()
                self._next = None
            if not self.members or self._contact == supervisor.primary_address:
                self._drop()

    def _schedule(self) -> None:
        self._next = self.runtime.call_later(HEARTBEAT_MS, self._round)

    def _drop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._conn is not None:
            self._conn.close()
            self._conn = self._contact = None

    def _round(self) -> None:
        with self._lock:
            self._next = None
            self._asked = list(self.members)
            conn = self._conn
            self._reused = (conn is not None and not conn.closed
                            and not conn.eof)
            if self.network.is_partitioned(self.host, self.primary_host):
                self._resolve({})   # the dial itself would be refused
            else:
                self._send()

    def _send(self) -> None:
        """Put the round on the wire, dialling a contact first if the
        standing connection is gone (a crash closes it): in this tick, so
        a dead primary is still a refused connect.

        Each bound is recorded by its supervisor the moment the renewal
        carrying it is on the wire, whether or not an answer ever comes:
        under an asymmetric partition the renewal may arrive and extend
        the lease although the reply never comes back, and promotion
        must wait that bound out (:meth:`SpaceSupervisor._failover`).
        """
        early: dict[int, str] = {}      # settled by the dial, by port
        if not self._reused:
            self._drop()
            for member in self._asked:
                try:
                    self._conn = self.network.connect(self.host,
                                                      member.primary_address)
                except ConnectionRefusedError_:
                    early[member.primary_address.port] = (
                        "lost" if self.network.is_partitioned(
                            self.primary_host, self.host) else "dead")
                except NetworkError:
                    early[member.primary_address.port] = "lost"
                else:
                    self._contact = member.primary_address
                    self._conn.serve(self._on_reply)
                    break
        conn = self._conn
        if conn is None:
            self._resolve(early)
            return
        now = self.runtime.now()
        contact = self._contact.port
        # Same host as the contact, so a port names a peer.
        valid_until = None
        peers: dict[int, float] = {}
        for member in self._asked:
            port = member.primary_address.port
            if port == contact:
                valid_until = now + member.lease_ms
            elif port not in early:
                peers[port] = now + member.lease_ms
        args: dict[str, Any] = {"renew_lease": True,
                                "valid_until": valid_until}
        if peers:
            args["peers"] = peers
        try:
            conn.send({"op": "ping", "args": args})
        except (ConnectionClosedError, NetworkError):
            self._resolve(early)
            return
        for member in self._asked:
            if member.primary_address.port not in early:
                member.probes += 1
                bound = now + member.lease_ms
                if bound > member._lease_valid_until:
                    member._lease_valid_until = bound
        self._early = early
        self._timer = self.runtime.call_later(
            HEARTBEAT_MS, partial(self._on_reply, True))
        conn.poll()     # arms the socket: nothing can be queued yet

    def _on_reply(self, timed_out: bool = False) -> None:
        with self._lock:
            if self._timer is None:
                return      # a late event of a round already resolved
            answers: dict[int, str] = {}
            try:
                if not timed_out:
                    reply = self._conn.poll()
                    if reply is None:
                        return
                    if reply["ok"]:
                        pong = reply["value"]
                        if "peers" in pong:
                            answers.update(pong["peers"])
                        answers[self._contact.port] = (
                            "fenced" if pong["superseded"]
                            or pong["lease_expired"] else "ok")
            except ConnectionClosedError:
                if self._reused:
                    # Hung up under this very probe (its EOF was still in
                    # flight): redial now, as a fresh probe would.
                    self._reused = False
                    self._send()
                    return
            self._timer.cancel()
            self._timer = None
            answers.update(self._early)     # a dial's verdict stands
            self._resolve(answers)

    def _resolve(self, answers: dict[int, str]) -> None:
        """Hand every asked supervisor its primary's answer (``lost``
        when the round brought none) and schedule the next round."""
        asked, self._asked = self._asked, []
        contact = self._contact
        if contact is None or answers.get(contact.port, "lost") in (
                "dead", "lost"):
            # Never reuse a connection a probe failed on: a late reply
            # would be read as the next probe's answer.
            self._drop()
        for member in asked:
            answer = answers.get(member.primary_address.port, "lost")
            if answer == "ok":
                member._misses = 0
                member._all_dead = True
            else:
                member._missed(answer if answer in ("dead", "lost")
                               else "fenced")
        if self.members:
            self._schedule()


class SpaceSupervisor:
    """Promote the hot standby when the primary stops answering pings.

    Detection is deliberately dumb — ``MAX_MISSES`` consecutive failed
    probes at ``HEARTBEAT_MS`` intervals — which makes the failover time
    a deterministic function of the fault time under simulation.  The
    probes themselves are shared per host pair (:class:`_HostProbe`);
    the miss count, the lease bound, promotion and fencing are this
    supervisor's own.
    """

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        host: str,
        standby: HotStandby,
        primary_address: Address,
        registrar: Address,
        service_item: ServiceItem,
        old_registration_id: Optional[int] = None,
        metrics: Any = None,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.host = host
        self.standby = standby
        self.primary_address = primary_address
        self.registrar = registrar
        self.service_item = service_item
        self.old_registration_id = old_registration_id
        if metrics is None:
            from repro.core.metrics import Metrics  # core imports this module
            metrics = Metrics(runtime)
        self.metrics = metrics
        self.failovers = 0
        self.server: Optional[SpaceServer] = None
        self._running = False
        #: Expiry bound of the last lease renewal that *may have reached*
        #: the primary (every probe we managed to put on the wire counts,
        #: acknowledged or not).  Promotion waits this moment out unless
        #: the primary is provably lease-less — see :meth:`_failover`.
        self._lease_valid_until: Optional[float] = None
        #: Standbys this supervisor spawned itself (demoted primaries
        #: rejoining the replication chain); stopped with the supervisor.
        self._spawned_standbys: list[HotStandby] = []
        #: Probes put on the wire for this primary, and how many came
        #: back as anything but ``ok``.
        self.probes = 0
        self.probe_misses = 0
        self._misses = 0
        self._all_dead = True   # every miss so far was a hard refusal
        self._probe: Optional[_HostProbe] = None

    #: Primary lease granted to whichever server we supervise.  Sized so
    #: the lease expires no later than a promotion can happen: renewals
    #: ride every successful probe (one per ``HEARTBEAT_MS``), and
    #: promotion needs ``MAX_MISSES`` failed probes at the same cadence —
    #: so a primary that stops hearing from us self-fences before its
    #: replacement starts acknowledging writes.
    lease_ms = HEARTBEAT_MS * MAX_MISSES

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # The deployment grants the initial lease around now; assume the
        # worst (it runs its full course) until probes refine the bound.
        self._lease_valid_until = self.runtime.now() + self.lease_ms
        self._watch()

    def stop(self) -> None:
        self._running = False
        self._unwatch()
        for standby in self._spawned_standbys:
            standby.stop()

    # -- watchdog ------------------------------------------------------------

    def _watch(self) -> None:
        """Join the probe rounds of this host towards the primary's."""
        self._misses = 0
        self._all_dead = True
        agents = self.network.node_agents
        key = (self.host, ("probe", self.primary_address.host))
        self._probe = agents.get(key)
        if self._probe is None:
            self._probe = agents[key] = _HostProbe(self)
        self._probe.join(self)

    def _unwatch(self) -> None:
        if self._probe is not None:
            self._probe.leave(self)
            self._probe = None

    def _missed(self, status: str) -> None:
        """A probe round's verdict on our primary other than ``"ok"``
        (alive and serving: the round resets the miss count itself).

        ``"fenced"`` — alive but refusing ops (expired lease or
        superseded: promote, it cannot recover by itself); ``"dead"`` —
        connection refused with no partition in the way, or its node
        says nothing serves there; ``"lost"`` — sent but no answer, or
        unreachable behind a partition: the primary's state is unknown.
        """
        self.probe_misses += 1
        if status == "fenced":
            # The primary answered but is self-fenced: its lease
            # expired (a pause/partition outlived lease_ms) and
            # renewal was refused.  It will never serve again on its
            # own — only promotion restores a writable space.
            self.metrics.event("primary-self-fenced",
                               address=str(self.primary_address))
            self._promote(wait_lease=False)
            return
        self._misses += 1
        self._all_dead = self._all_dead and status == "dead"
        self.metrics.event("primary-heartbeat-miss", misses=self._misses,
                           status=status)
        if self._misses >= MAX_MISSES:
            # A run of pure connection-refusals proves nothing
            # listens there — no one holds a lease, promote at once.
            # Any "lost" probe (timeout, drop) leaves open that the
            # primary heard a renewal whose ack we never saw, so
            # promotion must wait that renewal out.
            self._promote(wait_lease=not self._all_dead)

    def _promote(self, wait_lease: bool) -> None:
        """Stop watching and fail over — a blocking sequence (lease wait,
        registrar RPCs), so a process of its own, once per failover."""
        self._unwatch()
        self.runtime.spawn(lambda: self._failover(wait_lease),
                           name=f"space-supervisor:{self.host}")

    def _failover(self, wait_lease: bool = True) -> None:
        """The promotion sequence: wait out any lease the unreachable
        primary may still hold, serve the replica, fix the registry,
        fence the deposed primary, and shepherd it back in as a standby."""
        if wait_lease and self._lease_valid_until is not None:
            # Split-brain guard: the last renewal we put on the wire may
            # have reached the primary even though its ack did not reach
            # us.  Until that grant expires the old primary is *entitled*
            # to acknowledge writes, so promoting now would put two
            # willing primaries on the network.  (+1 virtual ms clears
            # the boundary instant: the fence check on the primary is
            # ``now > expires``, so at exactly ``expires`` it still
            # serves.)
            remaining = self._lease_valid_until + 1.0 - self.runtime.now()
            if remaining > 0:
                self.metrics.event("failover-lease-wait", wait_ms=remaining)
                self.runtime.sleep(remaining)
            if not self._running:
                return
        self.failovers += 1
        old_primary = self.primary_address
        self.server = self.standby.promote(
            TransactionManager(self.runtime, metrics=self.metrics)
        )
        new_epoch = self.standby.space.wal.epoch
        client = LookupClient(self.network, self.host, self.registrar)
        try:
            if self.old_registration_id is not None:
                try:
                    client.cancel(self.old_registration_id)
                except (LookupError_, ConnectionClosedError,
                        ConnectionRefusedError_):
                    pass  # stale registration will age out by lease
            attributes = dict(self.service_item.attributes)
            attributes["epoch"] = new_epoch
            reply = client.register(
                ServiceItem(
                    self.service_item.service_id,
                    self.standby.address,
                    attributes,
                ),
                lease_ms=FOREVER,
            )
            self.old_registration_id = reply["registration_id"]
        finally:
            client.close()
        self.metrics.event(
            "failover-complete", host=self.host,
            address=str(self.standby.address),
            lsn=self.standby.space.wal.last_lsn,
            epoch=new_epoch,
        )
        self.runtime.spawn(
            lambda: self._fence_and_rejoin(old_primary, new_epoch),
            name=f"space-fencer:{self.host}",
        )

    # -- fencing the deposed primary ----------------------------------------

    def _fence_and_rejoin(self, old_primary: Address, epoch: int) -> None:
        """Demote the old primary, then re-arm supervision.

        The fence order is retried every heartbeat until the old primary
        is *known harmless*: either it acks the demotion (a paused or
        partitioned primary receives the order the moment the fault
        heals), or it refuses connections outright — dead, or already
        demoted-and-stopped with its ack lost to an asymmetric cut.
        Either way no stale commit can happen afterwards, so the deposed
        machine rejoins as a hot standby doing a full anti-entropy
        resync from the new primary (its own log may hold
        uncommitted-elsewhere old-epoch state, which the fresh replica
        simply never sees), and the watch loop restarts so a later
        failure of the *new* primary promotes the rejoined standby.
        """
        while self._running:
            status = self._send_fence(old_primary, epoch)
            if status in ("acked", "dead"):
                break
            self.runtime.sleep(HEARTBEAT_MS)
        if not self._running:
            return
        self.metrics.event("primary-fenced", host=self.host,
                           address=str(old_primary), epoch=epoch)
        rejoined = HotStandby(
            self.runtime, self.network, old_primary.host,
            primary_address=self.standby.address,
            address=old_primary,
            name=self.standby.space.name,
            snapshot_every=self.standby.space.snapshot_every,
            metrics=self.metrics,
        )
        # Traced like the standby it replaces (the framework's tracer).
        replaced = self.standby.space.wal
        rejoined.space.wal.trace_into(replaced.tracer, replaced.shard,
                                      str(old_primary))
        rejoined.start()
        self._spawned_standbys.append(rejoined)
        self.metrics.event("standby-rejoining", host=self.host,
                           address=str(old_primary), epoch=epoch)
        # Re-arm: supervise the promoted primary with the rejoined
        # standby as its successor (a second failover serves at the old
        # primary's address under epoch+1).
        self.primary_address = self.standby.address
        self.standby = rejoined
        if self.server is not None:
            self.server.grant_lease(self.lease_ms)
            self._lease_valid_until = self.runtime.now() + self.lease_ms
        self._watch()

    def _send_fence(self, address: Address, epoch: int) -> str:
        """One fence round trip.

        ``"acked"`` — the server admitted demotion; ``"dead"`` — nothing
        listens there (crashed, or fenced earlier and stopped);
        ``"retry"`` — unreachable or unresponsive, try again.
        """
        try:
            conn = self.network.connect(self.host, address)
        except ConnectionRefusedError_:
            # Refused while a partition stands between us could mean the
            # primary is alive behind the cut — keep retrying until the
            # heal tells us which.  (A real deployment would consult a
            # quorum or fencing store here; the simulation asks the
            # network, which is the same oracle.)
            if (self.network.is_partitioned(self.host, address.host)
                    or self.network.is_partitioned(address.host, self.host)):
                return "retry"
            return "dead"
        except NetworkError:
            return "retry"
        try:
            conn.send({"op": "fence", "args": {"epoch": epoch}})
            reply = conn.receive(timeout_ms=HEARTBEAT_MS)
            if (bool(reply) and bool(reply.get("ok"))
                    and bool(reply["value"].get("superseded"))):
                return "acked"
            return "retry"
        except (ConnectionClosedError, NetworkError):
            return "retry"
        finally:
            conn.close()
