"""Failover plumbing: locate the space via Jini, promote the standby.

:class:`JiniSpaceLocator` is the client half — a callable handed to
:class:`~repro.tuplespace.proxy.SpaceProxy` as its ``locator`` so a
reconnect asks the lookup service *where the space lives now* instead of
hammering a dead address.

:class:`SpaceSupervisor` is the control half — it heartbeats the primary
:class:`~repro.tuplespace.proxy.SpaceServer` and, after ``max_misses``
consecutive missed probes, promotes the :class:`~repro.tuplespace.durable.HotStandby`,
cancels the primary's lookup registration and registers the standby's
address under the same service attributes.  From that point every
locator-equipped proxy re-discovers the new primary on its next
reconnect.
"""

from __future__ import annotations

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

#: Supervisor probe period, and the consecutive missed probes that
#: trigger promotion.  The deployment sizes the primary's first lease and
#: paces its masters' space retries by the same two figures.
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


class SpaceSupervisor:
    """Promote the hot standby when the primary stops answering pings.

    Detection is deliberately dumb — ``max_misses`` consecutive failed
    probes at ``heartbeat_ms`` intervals — which makes the failover time
    a deterministic function of the fault time under simulation.
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
        heartbeat_ms: float = HEARTBEAT_MS,
        probe_timeout_ms: Optional[float] = None,
        max_misses: int = MAX_MISSES,
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
        self.heartbeat_ms = heartbeat_ms
        self.probe_timeout_ms = (
            probe_timeout_ms if probe_timeout_ms is not None else heartbeat_ms
        )
        self.max_misses = max_misses
        self.old_registration_id = old_registration_id
        self.metrics = metrics
        self.failed_over = False
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
        #: The heartbeat's standing connection to the primary, kept
        #: while probes succeed (one server-side handler per primary,
        #: not one accept + spawn + close per heartbeat).
        self._probe_conn: Optional[StreamSocket] = None

    @property
    def lease_ms(self) -> float:
        """Primary lease granted to whichever server we supervise.

        Sized so the lease expires no later than a promotion can happen:
        renewals ride every successful probe (one per ``heartbeat_ms``),
        and promotion needs ``max_misses`` failed probes at the same
        cadence — so a primary that stops hearing from us self-fences
        before its replacement starts acknowledging writes.
        """
        return self.heartbeat_ms * self.max_misses

    @property
    def epoch(self) -> int:
        """Epoch of the primary currently (or last) supervised."""
        return self.standby.space.wal.epoch

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # The deployment grants the initial lease around now; assume the
        # worst (it runs its full course) until probes refine the bound.
        self._lease_valid_until = self.runtime.now() + self.lease_ms
        self.runtime.spawn(self._watch, name=f"space-supervisor:{self.host}")

    def stop(self) -> None:
        self._running = False
        self._drop_probe_conn()
        for standby in self._spawned_standbys:
            standby.stop()

    def _drop_probe_conn(self) -> None:
        if self._probe_conn is not None:
            self._probe_conn.close()
            self._probe_conn = None

    # -- watchdog ------------------------------------------------------------

    def _watch(self) -> None:
        misses = 0
        all_dead = True  # every miss so far was a hard connection refusal
        generation = self.failovers
        while self._running and self.failovers == generation:
            self.runtime.sleep(self.heartbeat_ms)
            if not self._running or self.failovers != generation:
                return
            status = self._probe()
            if status == "ok":
                misses = 0
                all_dead = True
                continue
            if status == "fenced":
                # The primary answered but is self-fenced: its lease
                # expired (a pause/partition outlived lease_ms) and
                # renewal was refused.  It will never serve again on its
                # own — only promotion restores a writable space.
                if self.metrics is not None:
                    self.metrics.event("primary-self-fenced",
                                       address=str(self.primary_address))
                self._failover(wait_lease=False)
                return
            misses += 1
            all_dead = all_dead and status == "dead"
            if self.metrics is not None:
                self.metrics.event("primary-heartbeat-miss", misses=misses,
                                   status=status)
            if misses >= self.max_misses:
                # A run of pure connection-refusals proves nothing
                # listens there — no one holds a lease, promote at once.
                # Any "lost" probe (timeout, drop) leaves open that the
                # primary heard a renewal whose ack we never saw, so
                # promotion must wait that renewal out.
                self._failover(wait_lease=not all_dead)
                return

    def _probe(self) -> str:
        """One ping round-trip to the primary.

        ``"ok"`` — alive and serving; ``"fenced"`` — alive but refusing
        ops (expired lease or superseded: promote, it cannot recover by
        itself); ``"dead"`` — connection refused with no partition in
        the way (nothing listens there); ``"lost"`` — sent but no answer,
        or unreachable behind a partition: the primary's state is unknown.

        The probe doubles as a *lease renewal*: a primary that can still
        hear us keeps acknowledging writes, one that cannot self-fences
        after :attr:`lease_ms` — strictly before we would promote.  The
        renewal carries its own expiry bound (``valid_until``, stamped
        from *our* clock before the send), and we remember that bound the
        moment the request is on the wire: under an asymmetric partition
        the request may arrive and renew the lease even though the reply
        never comes back, and promotion must assume exactly that.
        """
        status = self._ping()
        if status not in ("ok", "fenced"):
            # Never reuse a connection a probe failed on: a late reply
            # would be read as the next probe's answer.
            self._drop_probe_conn()
        return status

    def _ping(self) -> str:
        primary = self.primary_address
        if self.network.is_partitioned(self.host, primary.host):
            return "lost"  # the dial itself would be refused
        for _ in range(2):
            conn = self._probe_conn
            reused = conn is not None and not conn.closed and not conn.eof
            if not reused:
                # First probe, or the primary hung up since the last one
                # (a crash closes its connections): dial in this tick,
                # so a dead primary is still a refused connect.
                self._drop_probe_conn()
                try:
                    conn = self.network.connect(self.host, primary)
                except ConnectionRefusedError_:
                    if self.network.is_partitioned(primary.host, self.host):
                        return "lost"
                    return "dead"
                except NetworkError:
                    return "lost"
                self._probe_conn = conn
            try:
                valid_until = self.runtime.now() + self.lease_ms
                conn.send({"op": "ping", "args": {"renew_lease": True,
                                                  "valid_until": valid_until}})
                # On the wire: the primary may honour it even if we
                # never hear back.
                if (self._lease_valid_until is None
                        or valid_until > self._lease_valid_until):
                    self._lease_valid_until = valid_until
                reply = conn.receive(timeout_ms=self.probe_timeout_ms)
            except ConnectionClosedError:
                if reused:
                    # Hung up under this very probe (its EOF was still
                    # in flight): redial now, as a fresh probe would.
                    self._drop_probe_conn()
                    continue
                return "lost"
            except NetworkError:
                return "lost"
            if not reply or not reply.get("ok"):
                return "lost"
            value = reply.get("value")
            if isinstance(value, dict) and (value.get("lease_expired")
                                            or value.get("superseded")):
                return "fenced"
            return "ok"
        return "lost"

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
                if self.metrics is not None:
                    self.metrics.event("failover-lease-wait",
                                       wait_ms=remaining)
                self.runtime.sleep(remaining)
            if not self._running:
                return
        self.failed_over = True
        self.failovers += 1
        self._drop_probe_conn()
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
        if self.metrics is not None:
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
            self.runtime.sleep(self.heartbeat_ms)
        if not self._running:
            return
        if self.metrics is not None:
            self.metrics.event("primary-fenced", host=self.host,
                               address=str(old_primary), epoch=epoch)
        rejoined = HotStandby(
            self.runtime, self.network, old_primary.host,
            primary_address=self.standby.address,
            address=old_primary,
            name=self.standby.space.name,
            snapshot_every=self.standby.space.snapshot_every,
            metrics=self.metrics,
            sync_replication=self.standby.sync_replication,
            repl_ack_timeout_ms=self.standby.repl_ack_timeout_ms,
        )
        rejoined.start()
        self._spawned_standbys.append(rejoined)
        if self.metrics is not None:
            self.metrics.event("standby-rejoining", host=self.host,
                               address=str(old_primary), epoch=epoch)
        # Re-arm: supervise the promoted primary with the rejoined
        # standby as its successor (a second failover serves at the old
        # primary's address under epoch+1).  ``failed_over`` stays True —
        # it records that a failover *happened*; the watch loop keys off
        # the failover generation instead.
        self.primary_address = self.standby.address
        self.standby = rejoined
        if self.server is not None:
            self.server.grant_lease(self.lease_ms)
            self._lease_valid_until = self.runtime.now() + self.lease_ms
        self.runtime.spawn(self._watch, name=f"space-supervisor:{self.host}")

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
            reply = conn.receive(timeout_ms=self.probe_timeout_ms)
            if (bool(reply) and bool(reply.get("ok"))
                    and bool(reply["value"].get("superseded"))):
                return "acked"
            return "retry"
        except (ConnectionClosedError, NetworkError):
            return "retry"
        finally:
            conn.close()
