"""Remote access to a JavaSpace over the simulated network.

The paper's workers talk to the space through a serializing proxy; here
:class:`SpaceServer` exports a space on a stream address and
:class:`SpaceProxy` is the client stub.  Every operation pays the modelled
network cost, and a connection that drops with open transactions gets them
aborted — the fault-tolerance property the paper attributes to JavaSpaces
transactions (a worker crash mid-task restores the task entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from repro.errors import (
    AdmissionError,
    ConnectionClosedError,
    ConnectionRefusedError_,
    FencedError,
    NetworkError,
    SpaceError,
    TransactionAbortedError,
    TransactionError,
)
from repro.net.address import Address
from repro.net.network import Network, StreamSocket
from repro.runtime.base import Runtime
from repro.tuplespace.entry import Entry
from repro.tuplespace.events import EventRegistration, RemoteEvent
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.space import JavaSpace, Waiter
from repro.tuplespace.transaction import Transaction, TransactionManager
from repro.util.codec import (
    decode_any,
    encode_entry,
    peek_class,
    read_fields,
)

__all__ = ["SpaceServer", "SpaceProxy", "ProxyBatch", "RemoteTransaction",
           "RecoveryPolicy", "AdmissionConfig", "AdmissionController"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Self-healing parameters for a :class:`SpaceProxy`.

    Backoff is capped exponential with multiplicative jitter drawn from a
    simulation RNG stream (never the wall clock), so recovery schedules
    replay exactly under a fixed seed.  ``call_timeout_ms`` bounds how long
    one RPC waits for its reply before the connection is declared dead —
    without it a request lost to a partition would block forever.
    """

    max_retries: int = 8
    base_backoff_ms: float = 50.0
    max_backoff_ms: float = 2_000.0
    jitter: float = 0.5
    call_timeout_ms: Optional[float] = 10_000.0

    def backoff_ms(self, attempt: int, rng: Any = None) -> float:
        delay = min(self.max_backoff_ms,
                    self.base_backoff_ms * (2.0 ** max(0, attempt - 1)))
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-tenant admission policy enforced by a :class:`SpaceServer`.

    All limits apply to *tenant-tagged* task writes only (an entry whose
    class is in ``class_names`` and whose ``tenant`` field is set), so
    single-tenant deployments — and every other entry class: results,
    checkpoints, dead letters — are never throttled.  Rates are metered
    on the simulation clock, so admission decisions replay exactly.
    """

    #: Per-tenant cap on queued (unclaimed) tasks in the space.
    max_in_flight: Optional[int] = None
    #: Per-tenant token-bucket refill rate, task writes per second.
    write_rate_per_s: Optional[float] = None
    #: Token-bucket capacity (burst size), in task writes.
    write_burst: float = 16.0
    #: Total task backlog at which the server starts shedding: writes
    #: with ``priority < shed_below_priority`` are rejected.
    queue_soft_watermark: Optional[int] = None
    #: Total task backlog at which *every* tenant-tagged task write is
    #: rejected regardless of priority.
    queue_hard_watermark: Optional[int] = None
    #: Priority cutoff for soft-watermark shedding (entries without a
    #: priority count as 0 — the lowest, shed first).
    shed_below_priority: int = 1
    #: Retry-after hint for quota/watermark rejections (token-bucket
    #: rejections compute the exact refill time instead).
    retry_after_ms: float = 100.0
    #: Per-tenant overrides of ``max_in_flight`` / ``write_rate_per_s``.
    quotas: Optional[dict[str, int]] = None
    rates: Optional[dict[str, float]] = None
    #: Entry classes under admission control.
    class_names: tuple[str, ...] = ("TaskEntry",)


class AdmissionController:
    """Enforces an :class:`AdmissionConfig` ahead of dispatch.

    :meth:`check` runs like ``_check_fence`` — *before* the operation's
    handler — so a rejected write provably has no side effects and the
    client may retry it blindly after the ``retry_after_ms`` hint.  Only
    reads of space state (``count``) happen here.
    """

    def __init__(self, runtime: Runtime, space: JavaSpace,
                 config: AdmissionConfig) -> None:
        self.runtime = runtime
        self.space = space
        self.config = config
        #: tenant → (tokens, last_refill_ms) for the write-rate bucket.
        self._buckets: dict[str, tuple[float, float]] = {}
        self.stats = {"checked": 0, "admitted": 0, "rejected": 0, "shed": 0}
        #: tenant → {"admitted": n, "rejected": n, "shed": n}.
        self.tenant_stats: dict[str, dict[str, int]] = {}
        self._templates: dict[type, Entry] = {}

    # -- templates for backlog counting ----------------------------------------

    def _class_template(self, cls: type) -> Entry:
        """A field-less template matching every entry of ``cls``."""
        template = self._templates.get(cls)
        if template is None:
            template = cls.__new__(cls)
            self._templates[cls] = template
        return template

    @staticmethod
    def _tenant_template(cls: type, tenant: str) -> Entry:
        template = cls.__new__(cls)
        template.tenant = tenant
        return template

    def _tenant_counts(self, tenant: str) -> dict[str, int]:
        counts = self.tenant_stats.get(tenant)
        if counts is None:
            counts = self.tenant_stats[tenant] = {
                "admitted": 0, "rejected": 0, "shed": 0}
        return counts

    def _quota_for(self, tenant: str) -> Optional[int]:
        quotas = self.config.quotas
        if quotas is not None and tenant in quotas:
            return quotas[tenant]
        return self.config.max_in_flight

    def _rate_for(self, tenant: str) -> Optional[float]:
        rates = self.config.rates
        if rates is not None and tenant in rates:
            return rates[tenant]
        return self.config.write_rate_per_s

    # -- the admission decision -------------------------------------------------

    def check(self, op: str, args: dict[str, Any]) -> None:
        """Raise :class:`~repro.errors.AdmissionError` to refuse ``op``.

        Applies to ``write``/``write_all`` of controlled, tenant-tagged
        entries; everything else passes untouched.  A ``requeue``-flagged
        request (a worker re-queuing tasks it already holds: preemption
        release, poison-task retry) bypasses quotas — those tasks were
        admitted once, and shedding them would break exactly-once.
        The whole operation is judged before any of it executes, so a
        mixed ``write_all`` is all-or-nothing.
        """
        if op == "write":
            frames = [args["entry_data"]]
        elif op == "write_all":
            frames = args["entries_data"]
        else:
            return
        if args.get("requeue"):
            return
        config = self.config
        #: tenant → (class, priority) of each of its controlled writes.
        controlled: dict[str, list[tuple[type, Optional[int]]]] = {}
        for frame in frames:
            # The controlled-class test reads the frame header only, and
            # tenant/priority are field-slice reads: admission judges an
            # entry without decoding it.
            cls = peek_class(frame)
            if cls.__name__ not in config.class_names:
                continue
            tenant, priority = read_fields(frame, ("tenant", "priority"))
            if tenant is None:
                continue
            controlled.setdefault(tenant, []).append((cls, priority))
        if not controlled:
            return
        self.stats["checked"] += 1
        now = self.runtime.now()
        # Watermark shedding first: overload protection outranks per-
        # tenant bookkeeping, and a shed write must not drain the bucket.
        self._check_watermarks(controlled)
        for tenant, batch in sorted(controlled.items()):
            self._check_quota(tenant, batch)
        for tenant, batch in sorted(controlled.items()):
            self._check_rate(tenant, batch, now)
        self.stats["admitted"] += 1
        for tenant, batch in controlled.items():
            self._tenant_counts(tenant)["admitted"] += len(batch)

    def _reject(self, tenant: Optional[str], reason: str, message: str,
                retry_after_ms: float) -> None:
        self.stats["rejected"] += 1
        if reason == "shed":
            self.stats["shed"] += 1
        if tenant is not None:
            counts = self._tenant_counts(tenant)
            counts["rejected"] += 1
            if reason == "shed":
                counts["shed"] += 1
        raise AdmissionError(message, retry_after_ms=retry_after_ms,
                             tenant=tenant, reason=reason)

    def _check_watermarks(
            self, controlled: dict[str, list[tuple[type, Optional[int]]]]
    ) -> None:
        config = self.config
        if config.queue_soft_watermark is None and \
                config.queue_hard_watermark is None:
            return
        backlog = sum(
            self.space.count(self._class_template(cls))
            for cls in {cls for batch in controlled.values()
                        for cls, _ in batch}
        )
        hard = config.queue_hard_watermark
        if hard is not None and backlog >= hard:
            tenant = sorted(controlled)[0] if len(controlled) == 1 else None
            self._reject(
                tenant, "shed",
                f"queue depth {backlog} >= hard watermark {hard}; "
                f"shedding all task admissions",
                config.retry_after_ms)
        soft = config.queue_soft_watermark
        if soft is None or backlog < soft:
            return
        cutoff = config.shed_below_priority
        for tenant, batch in sorted(controlled.items()):
            for _, priority in batch:
                priority = priority or 0
                if priority < cutoff:
                    self._reject(
                        tenant, "shed",
                        f"queue depth {backlog} >= soft watermark {soft}; "
                        f"shedding priority {priority} < {cutoff} "
                        f"for tenant {tenant!r}",
                        config.retry_after_ms)

    def _check_quota(self, tenant: str,
                     batch: list[tuple[type, Optional[int]]]) -> None:
        quota = self._quota_for(tenant)
        if quota is None:
            return
        in_flight = sum(
            self.space.count(self._tenant_template(cls, tenant))
            for cls in {cls for cls, _ in batch}
        )
        if in_flight + len(batch) > quota:
            self._reject(
                tenant, "in-flight",
                f"tenant {tenant!r} has {in_flight} tasks in flight; "
                f"+{len(batch)} would exceed quota {quota}",
                self.config.retry_after_ms)

    def _check_rate(self, tenant: str,
                    batch: list[tuple[type, Optional[int]]],
                    now: float) -> None:
        rate = self._rate_for(tenant)
        if rate is None:
            return
        burst = max(self.config.write_burst, 1.0)
        tokens, last = self._buckets.get(tenant, (burst, now))
        tokens = min(burst, tokens + rate * (now - last) / 1000.0)
        cost = float(len(batch))
        if tokens < cost:
            # Hint exactly when the bucket will have refilled.
            retry_after = (cost - tokens) / rate * 1000.0
            self._buckets[tenant] = (tokens, now)
            self._reject(
                tenant, "rate",
                f"tenant {tenant!r} exceeds write rate {rate}/s "
                f"(need {cost:.0f} tokens, have {tokens:.2f})",
                retry_after)
        self._buckets[tenant] = (tokens - cost, now)


#: Operations safe to re-issue blindly after a reconnect: they either do
#: not mutate the space or (``txn_create``, ``notify``) create state that
#: died with the dropped connection.  A retried ``take``/``write`` could
#: consume or duplicate an entry whose first attempt actually landed, so
#: those surface the disconnect to the caller, whose transaction was
#: aborted server-side anyway.
_IDEMPOTENT_OPS = frozenset({"read", "exists", "count", "contents", "ping",
                             "txn_create", "notify"})

#: Operations whose ``timeout_ms`` arg is a *server-side wait budget*: the
#: client's reply deadline must cover it on top of the RPC budget, or a
#: long blocking take would be misread as a dead connection.
_BLOCKING_OPS = frozenset({"read", "exists", "take", "take_multiple"})

#: Server exceptions reconstructed as their own type on the client, so a
#: caller can distinguish "your transaction expired" from a generic remote
#: failure without string matching.
_REMOTE_ERROR_TYPES: dict[str, type] = {
    "TransactionAbortedError": TransactionAbortedError,
    "TransactionError": TransactionError,
    "FencedError": FencedError,
    "AdmissionError": AdmissionError,
    # ``notify`` dials back to the client's event port; a server that
    # cannot reach it reports a connection failure, not a space error.
    "ConnectionRefusedError_": ConnectionRefusedError_,
}


def _error_reply(exc: Exception) -> dict[str, Any]:
    """Marshal a handler exception into a reply dict.

    :class:`AdmissionError` carries structured fields (the retry-after
    hint, tenant, reason) that the client-side reconstruction needs —
    a string round trip would lose them.
    """
    reply: dict[str, Any] = {"ok": False, "error": str(exc),
                             "type": type(exc).__name__}
    if isinstance(exc, AdmissionError):
        reply["retry_after_ms"] = exc.retry_after_ms
        reply["tenant"] = exc.tenant
        reply["reason"] = exc.reason
    return reply


def _raise_remote(reply: dict[str, Any], label: str) -> None:
    """Re-raise a marshalled server error as its client-side type."""
    exc_cls = _REMOTE_ERROR_TYPES.get(reply.get("type"))
    message = f"remote {label} failed: {reply.get('error')}"
    if exc_cls is AdmissionError:
        raise AdmissionError(
            message,
            retry_after_ms=reply.get("retry_after_ms", 0.0),
            tenant=reply.get("tenant"),
            reason=reply.get("reason", "quota"),
        )
    if exc_cls is not None:
        raise exc_cls(message)
    raise SpaceError(
        f"remote {label} failed: {reply.get('type')}: {reply.get('error')}")

#: Operations exempt from epoch/lease fencing: probes must reach a fenced
#: server (that is how supervisors and demoted standbys talk to it), the
#: replication feed is how a fenced server *re-syncs*, and ``fence`` is
#: the demotion order itself.
_FENCE_EXEMPT_OPS = frozenset({"ping", "replicate", "fence"})

#: Sentinel returned by a handler that already sent its own reply and
#: turned the connection into a one-way stream (replication feed).
_STREAMING = object()

#: Operations that cannot ride inside a ``batch`` request: they hijack the
#: connection (``replicate``), need their own side channel (``notify``),
#: or would nest (``batch``).
_NON_BATCHABLE = frozenset({"replicate", "notify", "batch"})


def _first(frames: list) -> Any:
    return frames[0] if frames else None


@dataclass(slots=True, eq=False)
class _Blocked:
    """A ``read``/``take``/``take_multiple``/``exists`` parked in the
    space: ``shape`` turns the frames it will find into the reply value,
    ``timer`` is its deadline, ``batch`` the pipeline it interrupted."""

    waiter: Waiter
    shape: Callable[[list], Any]
    timer: Any = None
    batch: Optional[tuple[list, list]] = None


@dataclass(slots=True, eq=False)
class _Gate:
    """A finished reply held back until every attached replication feed
    has confirmed ``lsn`` — or ``deadline`` passes."""

    value: Any
    lsn: int
    deadline: float
    timer: Any = None


class _Session:
    """One client connection as the server sees it.

    ``parked`` is the continuation of the request in progress while it
    waits (:class:`_Blocked`, :class:`_Gate`); the connection's later
    messages then stay queued, exactly as they did behind a process
    blocked in the handler.
    """

    __slots__ = ("conn", "transactions", "before_lsn", "parked",
                 "on_message", "wake")

    def __init__(self, server: "SpaceServer", conn: StreamSocket) -> None:
        self.conn = conn
        self.transactions: dict[int, Transaction] = {}
        self.before_lsn = 0
        self.parked: Any = None
        self.on_message = partial(server._on_message, self)
        # A space waiter's wake: resume in the zero-delay event that
        # would have woken a process blocked in the space.
        self.wake = partial(server.runtime.call_later, 0.0,
                            partial(server._resume, self))


class LeaseEndpoint:
    """A node's lease agent (the paper's one-agent-per-node shape): every
    primary serving on the host is listed here by port, so one supervisor
    probe that reaches any of them is answered for all — each by its
    *own* ping handler, so a renewal is granted by nobody but its target."""

    def __init__(self) -> None:
        self.servers: dict[int, "SpaceServer"] = {}
        #: Lease-renewal pings handled on this node, however they came.
        self.renewals = 0

    def probe(self, bounds: dict[int, float]) -> dict[int, str]:
        """``{port: valid_until}`` → ``{port: "ok" | "lease_expired" |
        "superseded" | "dead"}`` (``dead``: nothing serves there)."""
        statuses = {}
        for port, valid_until in bounds.items():
            server = self.servers.get(port)
            statuses[port] = "dead" if server is None else lease_status(
                server._dispatch({"op": "ping", "args": {
                    "renew_lease": True, "valid_until": valid_until}}, None))
        return statuses


def lease_status(pong: dict[str, Any]) -> str:
    """What a ping reply says about the server's lease."""
    if pong.get("superseded"):
        return "superseded"
    return "lease_expired" if pong.get("lease_expired") else "ok"


class SpaceServer:
    """Exports a :class:`JavaSpace` on a network address."""

    def __init__(
        self,
        runtime: Runtime,
        space: JavaSpace,
        network: Network,
        address: Address,
        txn_manager: Optional[TransactionManager] = None,
    ) -> None:
        self.runtime = runtime
        self.space = space
        self.network = network
        self.address = address
        self.txn_manager = txn_manager if txn_manager is not None else TransactionManager(runtime)
        self._listener = None
        self._running = False
        #: Serializes this server's event handlers.  A no-op under the
        #: simulator; on the threaded runtime they arrive on timer threads.
        self._lock = runtime.lock()
        #: Live client connections, in accept order (a dict, not a set:
        #: crash/drain close them in this order, and the order in which
        #: clients see the hang-up must replay).
        self._connections: dict[StreamSocket, _Session] = {}
        #: Request connection → (event channel, notify registrations made
        #: over it).  Like transactions, registrations live exactly as
        #: long as the connection that asked for them.
        self._subscriptions: dict[
            StreamSocket, tuple[StreamSocket, list[EventRegistration]]] = {}
        self.restarts = 0
        #: Epoch fencing (off by default; failover-managed servers enable
        #: it).  When on, a request whose stamped epoch is *behind* this
        #: server's WAL epoch is rejected with :class:`FencedError`, and a
        #: request from a *newer* epoch proves this server was superseded:
        #: it demotes itself on the spot.
        self.fencing = False
        #: Set once the server learns a higher epoch exists; every
        #: non-exempt op is refused from then on.
        self.superseded = False
        #: Requests rejected by the fence (stale client or deposed self).
        self.fenced_rpcs = 0
        #: Primary lease: when set, the server self-fences ``lease_ms``
        #: after the last supervisor renewal — a paused or partitioned
        #: primary stops acknowledging writes *before* its standby can be
        #: promoted, closing the split-brain window that heartbeat-driven
        #: failover otherwise leaves open.
        self.lease_ms: Optional[float] = None
        self._lease_expires: Optional[float] = None
        #: Synchronous replication: when on and a standby feed is attached,
        #: a mutation is acknowledged only after the standby has confirmed
        #: the WAL record.  This closes the *lost-ack* half of split brain:
        #: without it an egress-partitioned primary keeps acking loopback
        #: clients while nothing reaches the standby that is about to be
        #: promoted.  Enabled together with fencing by failover-managed
        #: deployments; standalone servers keep the async fast path.
        self.sync_replication = False
        #: How long a mutation may wait for the standby's ack before the
        #: server gives up and *drops the client connection unanswered*
        #: (the client sees a connection error: correctly indeterminate).
        self.repl_ack_timeout_ms = 500.0
        #: Replication LSN each attached feed has confirmed, keyed by the
        #: feed's connection; mutations gate on the minimum.
        self._feed_acks: dict[Any, int] = {}
        #: Sessions whose reply waits for those acks, oldest first.
        self._gates: list[_Session] = []
        #: Acks that timed out waiting for the standby (dropped replies).
        self.repl_stalls = 0
        #: Multi-tenant admission control (off by default).  When set,
        #: tenant-tagged task writes are checked *before* dispatch — like
        #: the fence — so a rejected write has no side effects.
        self.admission: Optional[AdmissionController] = None
        self._endpoint: LeaseEndpoint = network.node_agents.setdefault(
            (address.host, "lease"), LeaseEndpoint())

    def enable_admission(self, config: AdmissionConfig) -> AdmissionController:
        """Arm per-tenant admission control for this server's space."""
        self.admission = AdmissionController(self.runtime, self.space, config)
        return self.admission

    @property
    def epoch(self) -> int:
        """The epoch of the space served (0 for non-durable spaces)."""
        wal = getattr(self.space, "wal", None)
        return wal.epoch if wal is not None else 0

    def grant_lease(self, lease_ms: float) -> None:
        """Arm the primary lease (renewed by supervisor probe pings)."""
        self.lease_ms = lease_ms
        self._lease_expires = self.runtime.now() + lease_ms

    def start(self) -> None:
        """Start (or, after :meth:`stop`/:meth:`crash`, restart) serving."""
        if self._running:
            return
        if self._listener is not None:
            self.restarts += 1
        if self.lease_ms is not None:
            self._lease_expires = self.runtime.now() + self.lease_ms
        self._listener = listener = self.network.listen(self.address)
        self._running = True
        self._endpoint.servers[self.address.port] = self
        on_accept = partial(self._on_accept, listener)
        listener.serve(on_accept)
        # Accepting starts in the event the accept process used to start
        # in: connections dialled meanwhile wait in the listener.
        self.runtime.call_later(0.0, on_accept)

    def _halt(self) -> None:
        self._running = False
        if self._listener is not None:
            self._listener.close()
        if self._endpoint.servers.get(self.address.port) is self:
            del self._endpoint.servers[self.address.port]

    def stop(self, drain_ms: Optional[float] = 1_000.0) -> None:
        """Graceful stop: refuse new connections and give open ones
        ``drain_ms`` to finish before they are closed.

        The deadline is what makes "graceful" terminate: a client that
        never hangs up would otherwise be served forever.
        ``drain_ms=None`` restores that linger-forever behaviour.
        """
        self._halt()
        # Graceful stop is a durability barrier: a buffered commit group
        # must not be lost to a *clean* shutdown (crash() has no such
        # barrier — that is the failure being modelled).
        space_sync = getattr(self.space, "sync", None)
        if space_sync is not None:
            space_sync()
        if drain_ms is not None and self._connections:
            def _drain() -> None:
                if self._running:
                    return  # restarted in the meantime; not ours to close
                for conn in list(self._connections):
                    conn.close()

            self.runtime.call_later(drain_ms, _drain)

    def crash(self) -> None:
        """Abrupt server death: every live connection drops, so clients see
        :class:`ConnectionClosedError` and their open transactions abort —
        in-flight takes roll back exactly as on a real server restart.
        Nothing is flushed: a commit group still buffered in the WAL is
        at the mercy of the store, as after a real crash.
        The in-memory space contents survive a restart of the same server
        object; surviving the *machine* requires a
        :class:`~repro.tuplespace.durable.DurableSpace` recovered from its
        write-ahead log."""
        self._halt()
        for conn in list(self._connections):
            conn.close()

    # -- serving, by callback -----------------------------------------------------
    #
    # No process is parked per listener or per connection: the network
    # runs these handlers in the event that would have woken one.  A
    # request that must wait — for a match, for a replication ack — parks
    # its continuation on the session; nothing else ever blocks here.

    def _on_accept(self, listener: Any) -> None:
        with self._lock:
            try:
                while self._running:
                    conn = listener.poll()
                    if conn is None:
                        return
                    session = self._connections[conn] = _Session(self, conn)
                    conn.serve(session.on_message)
                    # Its first read happens in the event that used to
                    # start the connection's process.
                    self.runtime.call_later(0.0, session.on_message)
            except ConnectionClosedError:
                return

    def _on_message(self, session: _Session) -> None:
        """Serve what the connection has queued, until it runs dry or a
        request parks; abort its transactions when it drops."""
        conn = session.conn
        with self._lock:
            try:
                while session.parked is None:
                    request = conn.poll()
                    if request is None:
                        return
                    if "repl_ack" in request:
                        # Standby confirming replication up to an LSN.  Acks
                        # ride the feed connection *backwards* (standby to
                        # primary), which is exactly the direction an egress
                        # partition of the primary leaves open — so a cut-off
                        # primary notices its acks stopped instead of serving
                        # on in blissful ignorance.
                        self._note_repl_ack(conn, int(request["repl_ack"]))
                        continue
                    wal = getattr(self.space, "wal", None)
                    session.before_lsn = wal.last_lsn if wal is not None else 0
                    self._advance(session, self._dispatch, request, session)
                # Parked: later requests wait their turn, but a hang-up
                # must still be heard (raises if it already happened).
                conn.poll(read=False)
            except ConnectionClosedError:
                self._hang_up(session)

    def _advance(self, session: _Session, step: Callable[..., Any],
                 *args: Any) -> None:
        """Run the request in progress one step further and answer it,
        unless the step parked (again)."""
        try:
            value = step(*args)
            if value is _STREAMING:
                return  # handler replied itself; feed is one-way now
            if value.__class__ is _Blocked:
                session.parked = value
                remaining = value.waiter.remaining(self.runtime.now())
                if remaining is not None:
                    value.timer = self.runtime.call_later(
                        remaining, partial(self._resume, session, value))
                return
            self._reply(session, value)
        except ConnectionClosedError:
            raise
        except Exception as exc:  # marshalled back to the client
            session.conn.send(_error_reply(exc))

    def _resume(self, session: _Session,
                at_deadline: Optional[_Blocked] = None) -> None:
        """A parked space op was woken, or ``at_deadline`` ran out of
        time: look again (past the deadline that answers empty)."""
        with self._lock:
            blocked = session.parked
            if blocked.__class__ is not _Blocked:
                return      # hung up meanwhile
            if at_deadline is None:
                if blocked.timer is not None:
                    blocked.timer.cancel()
            elif blocked.waiter.woken or blocked is not at_deadline:
                return      # a wake is already scheduled and wins, as
                            # notify beats a blocked process's timeout
            else:
                self.space.forget(blocked.waiter)
            session.parked = None
            try:
                self._advance(session, self._unblock, session, blocked)
            except ConnectionClosedError:
                self._hang_up(session)
            else:
                self._on_message(session)

    def _unblock(self, session: _Session, blocked: _Blocked) -> Any:
        """Retry a parked op; on an answer, the rest of its request."""
        try:
            frames = self.space.retry(blocked.waiter)
            if frames is None:
                return blocked
            reply = {"ok": True, "value": blocked.shape(frames)}
        except Exception as exc:
            if blocked.batch is None:
                raise
            reply = _error_reply(exc)
        if blocked.batch is None:
            return reply["value"]
        ops, replies = blocked.batch
        replies.append(reply)
        if not reply["ok"]:
            return {"replies": replies}
        return self._run_batch(session, ops, replies)

    def _hang_up(self, session: _Session) -> None:
        """The connection is gone: drop everything that lived on it."""
        conn = session.conn
        if self._connections.pop(conn, None) is None:
            return      # already hung up
        if conn in self._feed_acks:
            del self._feed_acks[conn]
            self._wake_gates()
        parked, session.parked = session.parked, None
        if parked is not None:
            if parked.timer is not None:
                parked.timer.cancel()
            if parked.__class__ is _Blocked:
                self.space.forget(parked.waiter)
            elif session in self._gates:
                self._gates.remove(session)
        for txn in session.transactions.values():
            if txn.state == "active":
                txn.abort()
        subscription = self._subscriptions.pop(conn, None)
        if subscription is not None:
            channel, registrations = subscription
            for registration in registrations:
                registration.lease.cancel()
            channel.close()
        conn.close()

    # -- replication acknowledgements -------------------------------------------

    def _note_repl_ack(self, conn: StreamSocket, lsn: int) -> None:
        if lsn > self._feed_acks.get(conn, -1):
            self._feed_acks[conn] = lsn
        self._wake_gates()

    def _confirmed(self, lsn: int) -> bool:
        acks = self._feed_acks
        return bool(acks) and min(acks.values()) >= lsn

    def _reply(self, session: _Session, value: Any) -> None:
        """Answer the request in progress — under synchronous
        replication only once every attached feed has confirmed what it
        journalled.

        No feed attached at all means no gate (with no standby to
        promote there is nothing a lost ack could diverge from, and
        gating would deadlock a freshly promoted primary whose deposed
        predecessor has not rejoined yet).  A feed that hangs up *during*
        the wait is not consent: the standby is re-bootstrapping (its
        next feed will confirm) or being promoted (nobody will, and the
        replica that now serves does not hold this record).
        """
        wal = getattr(self.space, "wal", None)
        if (self.sync_replication and wal is not None
                and wal.last_lsn > session.before_lsn
                and self._feed_acks and not self._confirmed(wal.last_lsn)):
            session.parked = gate = _Gate(
                value, wal.last_lsn,
                self.runtime.now() + self.repl_ack_timeout_ms)
            self._hold(session, gate)
        else:
            session.conn.send({"ok": True, "value": value})

    def _hold(self, session: _Session, gate: _Gate) -> None:
        """(Re-)arm a gate with what is left of its budget, as a blocked
        process re-waits after a wake that did not satisfy it."""
        gate.timer = self.runtime.call_later(
            gate.deadline - self.runtime.now(),
            partial(self._release, session, gate, True))
        self._gates.append(session)

    def _wake_gates(self) -> None:
        """The feed set or an ack changed: every held reply re-checks, in
        its own zero-delay event, oldest first."""
        sessions, self._gates = self._gates, []
        for session in sessions:
            gate = session.parked
            gate.timer.cancel()
            self.runtime.call_later(
                0.0, partial(self._release, session, gate, False))

    def _release(self, session: _Session, gate: _Gate,
                 timed_out: bool) -> None:
        """Send, keep holding, or give up on a held reply."""
        with self._lock:
            if session.parked is not gate or (
                    timed_out and session not in self._gates):
                return      # hung up meanwhile, or a wake is on its way
            if timed_out:
                self._gates.remove(session)
            try:
                if self._confirmed(gate.lsn):
                    session.parked = None
                    session.conn.send({"ok": True, "value": gate.value})
                elif gate.deadline > self.runtime.now():
                    self._hold(session, gate)
                    return
                else:
                    # The standby never confirmed this mutation within
                    # the timeout.  Acking anyway would be the lost-ack
                    # bug: a promotion could discard a commit the client
                    # was told succeeded.  Dropping the connection
                    # *without a reply* instead makes the outcome
                    # honestly indeterminate on the client.
                    self.repl_stalls += 1
                    session.conn.close()
                    raise ConnectionClosedError(
                        f"replication ack for lsn {gate.lsn} timed out; "
                        f"dropping client unanswered")
            except ConnectionClosedError:
                self._hang_up(session)
            else:
                self._on_message(session)

    def _dispatch(self, request: dict[str, Any],
                  session: Optional[_Session]) -> Any:
        op = request.get("op")
        args = request.get("args", {})
        if self.fencing and op not in _FENCE_EXEMPT_OPS:
            self._check_fence(op, request.get("epoch"))
        if self.admission is not None:
            self.admission.check(op, args)
        txn = None
        txn_id = args.get("txn_id")
        if txn_id is not None:
            txn = session.transactions.get(txn_id)
            if txn is None:
                raise TransactionError(f"unknown transaction id {txn_id}")
        handler = _DISPATCH.get(op)
        if handler is None:
            raise SpaceError(f"unknown operation: {op!r}")
        return handler(self, args, txn, session)

    def _check_fence(self, op: str, client_epoch: Optional[int]) -> None:
        """Reject the request if either side of it is behind the cluster.

        The check runs *before* the handler, so a fenced request has no
        side effects — which is what makes the client's retry after
        re-discovery safe even for writes and takes.
        """
        if self.superseded:
            self.fenced_rpcs += 1
            raise FencedError(
                f"server at {self.address} was superseded "
                f"(epoch {self.epoch}); rediscover the primary")
        my_epoch = self.epoch
        if client_epoch is not None:
            if client_epoch < my_epoch:
                self.fenced_rpcs += 1
                raise FencedError(
                    f"stale client epoch {client_epoch} < {my_epoch}")
            if client_epoch > my_epoch:
                # A client that has already seen a newer primary is proof
                # this server was deposed while it wasn't looking.
                self.superseded = True
                self.fenced_rpcs += 1
                raise FencedError(
                    f"server epoch {my_epoch} superseded by client "
                    f"epoch {client_epoch}")
        if (self._lease_expires is not None
                and self.runtime.now() > self._lease_expires):
            # No supervisor renewal for a full lease: this server cannot
            # know whether a standby has been promoted, so it must refuse
            # acknowledgements until a renewal (or a fence) arrives.
            self.fenced_rpcs += 1
            raise FencedError(
                f"primary lease expired at {self._lease_expires:.0f} ms; "
                f"refusing {op!r} until the supervisor renews")

    # -- per-op handlers, bound through the _DISPATCH table ---------------------

    def _op_write(self, args, txn, session) -> Any:
        lease = self.space.write_encoded(args["entry_data"], txn=txn,
                                         lease_ms=args["lease_ms"])
        return {"remaining_ms": lease.remaining_ms()}

    # The four ops that may wait hand the space the session's ``wake``
    # instead of blocking: an answer comes back at once, or a waiter that
    # :meth:`_advance` parks as the request's continuation.

    def _op_read(self, args, txn, session) -> Any:
        got = self.space.read_encoded(args["template"], txn=txn,
                                      timeout_ms=args["timeout_ms"],
                                      wake=session.wake)
        return _Blocked(got, _first) if got.__class__ is Waiter else got

    def _op_take(self, args, txn, session) -> Any:
        got = self.space.take_encoded(args["template"], txn=txn,
                                      timeout_ms=args["timeout_ms"],
                                      wake=session.wake)
        return _Blocked(got, _first) if got.__class__ is Waiter else got

    def _op_count(self, args, txn, session) -> Any:
        return self.space.count(args["template"], txn=txn)

    def _op_exists(self, args, txn, session) -> Any:
        # A blocking read whose reply is one bit: waiting for a fat entry
        # to appear does not drag the entry itself over the wire.
        got = self.space.read_encoded(args["template"], txn=txn,
                                      timeout_ms=args["timeout_ms"],
                                      wake=session.wake)
        return _Blocked(got, bool) if got.__class__ is Waiter else got is not None

    def _op_write_all(self, args, txn, session) -> Any:
        leases = self.space.write_all_encoded(args["entries_data"], txn=txn,
                                              lease_ms=args["lease_ms"])
        return {"count": len(leases)}

    def _op_take_multiple(self, args, txn, session) -> Any:
        got = self.space.take_multiple_encoded(
            args["template"], args["max_entries"], txn=txn,
            timeout_ms=args["timeout_ms"], wake=session.wake)
        return _Blocked(got, list) if got.__class__ is Waiter else got

    def _op_contents(self, args, txn, session) -> Any:
        return self.space.contents(args["template"], txn=txn)

    def _op_txn_create(self, args, txn, session) -> Any:
        new_txn = self.txn_manager.create(args["timeout_ms"])
        session.transactions[new_txn.txn_id] = new_txn
        return new_txn.txn_id

    def _op_txn_commit(self, args, txn, session) -> Any:
        txn = session.transactions.pop(args["id"], None)
        if txn is None:
            raise TransactionError(f"unknown transaction id {args['id']}")
        txn.commit()
        return None

    def _op_txn_abort(self, args, txn, session) -> Any:
        txn = session.transactions.pop(args["id"], None)
        if txn is None:
            raise TransactionError(f"unknown transaction id {args['id']}")
        txn.abort()
        return None

    def _op_notify(self, args, txn, session) -> Any:
        return self._register_notify(args, session.conn)

    def _op_ping(self, args, txn, session) -> Any:
        # Supervisor probes double as lease renewals; an ordinary client
        # ping never does, so a mere worker cannot keep a deposed primary
        # alive.  Renewal is refused once the server is superseded, and —
        # crucially — once the lease has *already expired*: a stale ping
        # released by a healing pause must not resurrect a self-fenced
        # primary whose standby may have been promoted in the meantime.
        # Only an explicit ``grant_lease`` (the supervisor re-arming its
        # watch) un-fences.
        if args.get("renew_lease"):
            self._endpoint.renewals += 1
        if args.get("renew_lease") and self.lease_ms is not None:
            now = self.runtime.now()
            if not self.superseded and (self._lease_expires is None
                                        or now <= self._lease_expires):
                # The renewal extends the lease only to the *supervisor's*
                # bound (probe-send time + lease_ms), not to arrival time
                # + lease_ms: a renewal that crawled through a slow or
                # one-way-partitioned link must not grant more lease than
                # the supervisor will wait out before promoting, or the
                # two primaries overlap.  A renewal that carries no bound
                # therefore extends nothing.
                bound = args.get("valid_until")
                if bound is not None:
                    granted = float(bound)
                    if (self._lease_expires is None
                            or granted > self._lease_expires):
                        self._lease_expires = granted
        # The reply reports the fence state: a probe that finds the lease
        # expired tells the supervisor this primary is self-fenced and will
        # stay so (renewal was just refused above) — reachable-but-fenced
        # must trigger promotion, or the space stays read-only forever.
        pong = {
            "pong": True,
            "epoch": self.epoch,
            "superseded": self.superseded,
            "lease_expired": (
                self._lease_expires is not None
                and self.runtime.now() > self._lease_expires),
        }
        # A supervisor watching several primaries on this host sends one
        # probe: the others' bounds ride along (keyed by port — the host
        # is this one) and the node's lease endpoint answers for each
        # from its own server.
        peers = args.get("peers")
        if peers:
            pong["peers"] = self._endpoint.probe(peers)
        return pong

    def _op_fence(self, args, txn, session) -> Any:
        """Demotion order from a supervisor: a newer primary exists.

        Idempotent — repeated fences (the supervisor retries until the
        partition heals) all land on the same superseded flag.  The reply
        acknowledges with this server's final epoch so the supervisor
        knows the order arrived.
        """
        new_epoch = args.get("epoch", 0)
        if new_epoch > self.epoch and not self.superseded:
            self.superseded = True
            # Free the listen address for the machine's rejoin as a
            # standby (the ack is already on the wire when this fires);
            # stragglers get connection-refused and re-discover.
            self.runtime.call_later(0.0, lambda: self.stop(drain_ms=1_000.0))
        return {"epoch": self.epoch, "superseded": self.superseded}

    def _op_batch(self, args, txn, session) -> Any:
        """Execute a pipeline of sub-operations from one network message.

        Sub-ops run strictly in request order and stop at the first
        failure: later sub-ops are *not* attempted (their replies are
        simply absent), so a client can treat the reply list's length as
        the count of operations that actually ran.  One message each way
        replaces one round trip per operation — the proxy-side win that
        lets a pipelined worker do take+compute+write+commit in two
        RPCs per *batch* instead of four per *task*.

        A sub-op may name a transaction created *earlier in the same
        batch* with ``txn_id={"batch_ref": k}`` (``k`` = index of the
        ``txn_create`` sub-op): the placeholder resolves to that reply's
        id, so ``txn_create`` + ``take_multiple`` need only one round
        trip even though the client never saw the id.
        """
        # Admission runs over the *whole* pipeline before any sub-op
        # executes: a rejected batch therefore has zero side effects (no
        # executed prefix), the same pre-dispatch guarantee lone ops get
        # — which is what makes the proxy's blind retry-after-backoff
        # safe even for non-idempotent passengers.
        if self.admission is not None:
            for sub in args["ops"]:
                self.admission.check(sub.get("op"), sub.get("args", {}))
        return self._run_batch(session, args["ops"], [])

    def _run_batch(self, session: _Session, ops: list[dict[str, Any]],
                   replies: list[dict[str, Any]]) -> Any:
        """Run the sub-ops that have no reply yet.  One that parks
        returns its :class:`_Blocked`, tagged with the batch to come
        back to (:meth:`_unblock`)."""
        transactions = session.transactions
        for sub in ops[len(replies):]:
            op = sub.get("op")
            handler = _DISPATCH.get(op)
            if handler is None or op in _NON_BATCHABLE:
                replies.append({"ok": False, "type": "SpaceError",
                                "error": f"not batchable: {op!r}"})
                break
            sub_args = sub.get("args", {})
            sub_txn = None
            bad_ref = _SENTINEL = object()
            # "txn_id" names the transaction of space ops; "id" names the
            # one txn_commit/txn_abort act on — both may be placeholders.
            for key in ("txn_id", "id"):
                value = sub_args.get(key)
                if not isinstance(value, dict):
                    continue
                ref = value.get("batch_ref")
                if (not isinstance(ref, int) or not 0 <= ref < len(replies)
                        or not replies[ref].get("ok")):
                    bad_ref = ref
                    break
                sub_args = dict(sub_args)
                sub_args[key] = replies[ref]["value"]
            if bad_ref is not _SENTINEL:
                replies.append({"ok": False, "type": "TransactionError",
                                "error": f"bad batch_ref {bad_ref!r}"})
                break
            txn_id = sub_args.get("txn_id")
            if txn_id is not None:
                sub_txn = transactions.get(txn_id)
                if sub_txn is None:
                    replies.append({"ok": False, "type": "TransactionError",
                                    "error": f"unknown transaction id {txn_id}"})
                    break
            try:
                value = handler(self, sub_args, sub_txn, session)
            except ConnectionClosedError:
                raise
            except Exception as exc:
                replies.append(_error_reply(exc))
                break
            if value.__class__ is _Blocked:
                value.batch = (ops, replies)
                return value
            replies.append({"ok": True, "value": value})
        return {"replies": replies}

    def _op_replicate(self, args, txn, session) -> Any:
        """Bootstrap a standby and turn this connection into its feed.

        The reply (snapshot + log tail) is sent and the live subscription
        attached under one space-lock hold, so the cut is consistent: no
        commit can land between the tail we ship and the first streamed
        record, and none is shipped twice.
        """
        space = self.space
        conn = session.conn
        wal = getattr(space, "wal", None)
        if wal is None:
            raise SpaceError("space is not durable; nothing to replicate")
        with space._lock:
            store = wal.store
            conn.send({"ok": True, "value": {
                # The store's checkpoint bytes, as they are: the standby
                # installs and decodes the same frame recovery does.
                "snapshot": store.snapshot,
                "records": wal.records_since(
                    max(store.snapshot_lsn, args.get("from_lsn", 0))),
                # The standby adopts the primary's epoch even when no
                # commit has happened under it yet, so chained failovers
                # keep strictly increasing epochs.
                "epoch": wal.epoch,
            }})

            # Commit records are buffered and shipped as one
            # ``repl_batch`` message per kernel tick: the flush timer at
            # delay 0 runs after the current event finishes, so every
            # record committed at the same virtual instant (a write_all,
            # a transaction pipeline) rides one network message instead
            # of paying per-record latency.
            pending: list[Any] = []
            armed = [False]

            def flush(c: StreamSocket = conn) -> None:
                armed[0] = False
                if not pending:
                    return
                batch, pending[:] = list(pending), []
                try:
                    c.send({"repl_batch": batch})
                except (ConnectionClosedError, NetworkError):
                    wal.unsubscribe(feed)  # standby gone; stop feeding it

            def feed(record: Any) -> None:
                pending.append(record)
                if not armed[0]:
                    armed[0] = True
                    self.runtime.call_later(0.0, flush)

            wal.subscribe(feed)
            # Track this feed for synchronous-replication gating.  It
            # starts unconfirmed (-1): until the standby acks the
            # bootstrap, mutations must not trust the snapshot we just
            # put on the wire — it may never arrive.
            self._feed_acks[conn] = -1
            self._wake_gates()
        return _STREAMING

    def _register_notify(self, args: dict[str, Any], conn: StreamSocket) -> int:
        """Forward matching events to the client's event channel.

        The channel is dialled on the connection's first registration
        and shared by its later ones; both end with the connection (see
        :meth:`_hang_up`), so a client that reconnects — to this server or
        to a promoted standby — registers afresh and nothing leaks.

        Events are coalesced per kernel tick: a burst that becomes
        visible at one virtual instant (a ``write_all``, a transaction
        commit) is one message per registration carrying the burst's
        newest sequence number, so the gap tells the listener how many
        it stands for.
        """
        subscription = self._subscriptions.get(conn)
        if subscription is None:
            channel = self.network.connect(
                self.address.host, Address(args["host"], args["event_port"]))
            subscription = self._subscriptions[conn] = (channel, [])
        channel, registrations = subscription
        newest: list[RemoteEvent] = []  # the unsent burst's latest event

        def flush() -> None:
            event = newest.pop()
            try:
                channel.send({"registration_id": event.registration_id,
                              "sequence": event.sequence,
                              "source": event.source})
            except (ConnectionClosedError, NetworkError):
                pass  # client gone; the connection's teardown cancels us

        def listener(event: RemoteEvent) -> None:
            if newest:
                newest[0] = event
            else:
                newest.append(event)
                self.runtime.call_later(0.0, flush)

        reg = self.space.notify(args["template"], listener, lease_ms=args["lease_ms"])
        registrations.append(reg)
        return reg.registration_id


#: op name → unbound SpaceServer handler; a dict probe replaces the former
#: if-chain so dispatch cost no longer depends on the op's position.
_DISPATCH: dict[str, Callable[..., Any]] = {
    "write": SpaceServer._op_write,
    "read": SpaceServer._op_read,
    "take": SpaceServer._op_take,
    "count": SpaceServer._op_count,
    "exists": SpaceServer._op_exists,
    "write_all": SpaceServer._op_write_all,
    "take_multiple": SpaceServer._op_take_multiple,
    "contents": SpaceServer._op_contents,
    "txn_create": SpaceServer._op_txn_create,
    "txn_commit": SpaceServer._op_txn_commit,
    "txn_abort": SpaceServer._op_txn_abort,
    "notify": SpaceServer._op_notify,
    "ping": SpaceServer._op_ping,
    "fence": SpaceServer._op_fence,
    "replicate": SpaceServer._op_replicate,
    "batch": SpaceServer._op_batch,
}


# -- client wire forms --------------------------------------------------------
#
# One helper per entry-carrying op, shared by :class:`SpaceProxy` (the
# immediate call) and :class:`ProxyBatch` (the queued sub-op).  Entries
# are encoded once here, stored verbatim by the space and shipped back as
# the stored frame for one decode here; templates always travel as live
# objects — the server matches on their fields.


def _frame(entry: Entry) -> bytes:
    if not isinstance(entry, Entry):
        raise SpaceError(f"not an Entry: {type(entry).__name__}")
    return encode_entry(entry)


def _write_args(entry: Entry, txn: Optional["RemoteTransaction"],
                lease_ms: float, requeue: bool) -> dict[str, Any]:
    args = {"entry_data": _frame(entry), "lease_ms": lease_ms,
            "txn_id": txn.txn_id if txn else None}
    if requeue:
        # Worker re-queue of already-admitted tasks: exempt from
        # admission control (shedding it would break exactly-once).
        args["requeue"] = True
    return args


def _write_all_args(entries: list[Entry], txn: Optional["RemoteTransaction"],
                    lease_ms: float, requeue: bool) -> dict[str, Any]:
    args = {"entries_data": [_frame(entry) for entry in entries],
            "lease_ms": lease_ms, "txn_id": txn.txn_id if txn else None}
    if requeue:
        args["requeue"] = True
    return args


def _match_args(template: Entry, txn: Optional["RemoteTransaction"],
                timeout_ms: Optional[float]) -> dict[str, Any]:
    """``read`` and ``take`` share one request shape."""
    # ``raw`` is no longer read by the server (replies are always
    # frames); it stays on the wire so request bytes — run_micro's exact
    # wire-cost cells — are unchanged.
    return {"template": template, "timeout_ms": timeout_ms,
            "txn_id": txn.txn_id if txn else None, "raw": True}


def _take_multiple_args(template: Entry, max_entries: int,
                        txn: Optional["RemoteTransaction"],
                        timeout_ms: Optional[float]) -> dict[str, Any]:
    return {"template": template, "max_entries": max_entries,
            "timeout_ms": timeout_ms,
            "txn_id": txn.txn_id if txn else None, "raw": True}


def _decode_one(frame: Optional[bytes]) -> Optional[Entry]:
    return decode_any(frame) if frame is not None else None


def _decode_many(frames: list[bytes]) -> list[Entry]:
    return [decode_any(frame) for frame in frames]


class RemoteTransaction:
    """Client-side handle on a server transaction."""

    def __init__(self, proxy: "SpaceProxy", txn_id: Any) -> None:
        self._proxy = proxy
        self.txn_id = txn_id
        self.completed = False

    def commit(self) -> None:
        self._proxy._call("txn_commit", {"id": self.txn_id})
        self.completed = True

    def abort(self) -> None:
        self._proxy._call("txn_abort", {"id": self.txn_id})
        self.completed = True

    def __enter__(self) -> "RemoteTransaction":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if self.completed:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class ProxyBatch:
    """Collects compatible operations into one pipelined ``batch`` RPC.

    Build the pipeline with the JavaSpace-shaped methods, then
    :meth:`flush` sends everything in one network message and returns the
    per-operation results in order.  The server stops at the first
    failing sub-op; :meth:`flush` re-raises that error (reconstructed by
    type, like single calls) after running the side effects of the
    successful prefix — in particular a transaction whose ``commit`` rode
    in the batch is marked completed iff the commit actually ran, so its
    context manager never double-completes it.

    Retry semantics are inherited unchanged from PR 2: the whole batch is
    transparently re-issued on reconnect only if *every* sub-op is
    idempotent; otherwise the disconnect surfaces to the caller.
    """

    def __init__(self, proxy: "SpaceProxy") -> None:
        self._proxy = proxy
        self._ops: list[tuple[str, dict[str, Any]]] = []
        self._post: list[tuple[int, Callable[[Any], None]]] = []
        #: Sub-op index → decoder for a reply that carries entry frames.
        self._decode: dict[int, Callable[[Any], Any]] = {}

    def __len__(self) -> int:
        return len(self._ops)

    def _add(self, op: str, args: dict[str, Any],
             post: Optional[Callable[[Any], None]] = None,
             decode: Optional[Callable[[Any], Any]] = None) -> int:
        index = len(self._ops)
        self._ops.append((op, args))
        if post is not None:
            self._post.append((index, post))
        if decode is not None:
            self._decode[index] = decode
        return index

    # -- the batchable operation set ----------------------------------------

    def write(self, entry: Entry, txn: Optional["RemoteTransaction"] = None,
              lease_ms: float = FOREVER, requeue: bool = False) -> int:
        return self._add("write", _write_args(entry, txn, lease_ms, requeue))

    def write_all(self, entries: list[Entry],
                  txn: Optional["RemoteTransaction"] = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        return self._add("write_all",
                         _write_all_args(entries, txn, lease_ms, requeue))

    def read(self, template: Entry, txn: Optional["RemoteTransaction"] = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        return self._add("read", _match_args(template, txn, timeout_ms),
                         decode=_decode_one)

    def take(self, template: Entry, txn: Optional["RemoteTransaction"] = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        return self._add("take", _match_args(template, txn, timeout_ms),
                         decode=_decode_one)

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Optional["RemoteTransaction"] = None,
                      timeout_ms: Optional[float] = 0.0) -> int:
        return self._add(
            "take_multiple",
            _take_multiple_args(template, max_entries, txn, timeout_ms),
            decode=_decode_many)

    def count(self, template: Entry) -> int:
        return self._add("count", {"template": template, "txn_id": None})

    def txn_create(self, timeout_ms: float = FOREVER) -> "RemoteTransaction":
        """Open a transaction inside this batch.

        The returned handle carries a ``{"batch_ref": k}`` placeholder id
        that later ops *in the same batch* may use as their ``txn=``; the
        server resolves it, and :meth:`flush` swaps in the real id so the
        handle then works like any :meth:`SpaceProxy.transaction` result.
        """
        txn = RemoteTransaction(self._proxy, None)
        index = self._add("txn_create", {"timeout_ms": timeout_ms},
                          post=lambda value: setattr(txn, "txn_id", value))
        txn.txn_id = {"batch_ref": index}
        return txn

    def commit(self, txn: "RemoteTransaction") -> int:
        return self._add("txn_commit", {"id": txn.txn_id},
                         post=lambda _: setattr(txn, "completed", True))

    def abort(self, txn: "RemoteTransaction") -> int:
        return self._add("txn_abort", {"id": txn.txn_id},
                         post=lambda _: setattr(txn, "completed", True))

    # -- execution -----------------------------------------------------------

    def flush(self) -> list[Any]:
        """Send the pipeline as one RPC; return per-op values in order."""
        if not self._ops:
            return []
        ops, self._ops = self._ops, []
        post, self._post = self._post, []
        decode, self._decode = self._decode, {}
        replies = self._proxy._call_batch(ops)
        for index, hook in post:
            if index < len(replies) and replies[index].get("ok"):
                hook(replies[index].get("value"))
        results: list[Any] = []
        for i, (op, _) in enumerate(ops):
            if i >= len(replies):
                raise SpaceError(
                    f"batched {op} skipped: an earlier operation failed")
            reply = replies[i]
            if not reply.get("ok"):
                _raise_remote(reply, op)
            value = reply.get("value")
            decoder = decode.get(i)
            results.append(decoder(value) if decoder is not None else value)
        return results


class SpaceProxy:
    """Client stub with the JavaSpace operation set.

    One proxy per client process: requests are serialized on a single
    connection (matching the blocking JavaSpaces client API).

    With a :class:`RecoveryPolicy` the proxy is *self-healing*: a dropped
    or timed-out connection is re-established with capped exponential
    backoff (jitter drawn from ``rng``, virtual time only), idempotent
    operations are transparently re-issued, and non-idempotent ones raise
    :class:`ConnectionClosedError` to let the caller restart its work
    cycle — its server-side transaction was already aborted by the drop.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        server_address: Address,
        recovery: Optional[RecoveryPolicy] = None,
        rng: Any = None,
        metrics: Any = None,
        locator: Optional[Callable[[], Optional[Address]]] = None,
        tracer: Any = None,
    ) -> None:
        self.network = network
        self.host = host
        self.server_address = server_address
        self.recovery = recovery
        self._rng = rng
        self._metrics = metrics
        #: Optional telemetry tracer: each RPC (and pipelined batch)
        #: becomes a span, parented to the caller's ambient span so task
        #: traces show their space round trips.  ``None``/disabled costs
        #: one attribute check per call.
        self._tracer = tracer
        #: Optional service locator (e.g. a Jini lookup query) consulted on
        #: every reconnect: after a failover the proxy re-discovers the
        #: promoted standby instead of hammering the dead primary address.
        self._locator = locator
        self._conn: Optional[StreamSocket] = None
        #: Event side of ``notify``: the listening socket the server dials
        #: back to, the channel it opened, and the handlers per
        #: registration id — all scoped to the current connection.
        self._event_listener = None
        self._event_channel: Optional[StreamSocket] = None
        self._event_handlers: dict[int, Callable[[RemoteEvent], Any]] = {}
        self._failed = False
        self._connects = 0
        self._dial_failures = 0
        self.reconnects = 0
        self.retries = 0
        #: Last primary epoch learned from the locator; stamped on every
        #: request so a deposed primary rejects us (and we rediscover)
        #: instead of silently accepting a write the cluster moved past.
        self.epoch: Optional[int] = None
        #: Calls rejected with :class:`FencedError` and re-routed.
        self.fenced = 0
        #: Calls rejected with :class:`AdmissionError` and backed off.
        self.admission_rejected = 0

    # -- plumbing ------------------------------------------------------------------

    def fail(self) -> None:
        """Simulate host death: every subsequent call raises, and the open
        connection drops so the server aborts this client's transactions
        (fault-injection hook used by crash experiments)."""
        self._failed = True
        self._drop_connection()

    def _connection(self) -> StreamSocket:
        if self._failed:
            raise ConnectionClosedError("proxy host crashed")
        if self._conn is None or self._conn.closed:
            # Re-discover on any *re*connect — including a first connect
            # that keeps failing: a proxy born after a failover (restarted
            # master) must not hammer the dead configured address forever.
            if self._locator is not None and \
                    (self._connects > 0 or self._dial_failures > 0):
                self._rediscover()
            try:
                self._conn = self.network.connect(self.host, self.server_address)
            except (ConnectionRefusedError_, NetworkError):
                self._dial_failures += 1
                raise
            self._connects += 1
            if self._connects > 1:
                self.reconnects += 1
                if self._metrics is not None:
                    self._metrics.event("proxy-reconnected", host=self.host)
        return self._conn

    def _rediscover(self) -> None:
        """Ask the locator where the space lives now (reconnect path).

        A locator failure (registrar briefly down) falls back to the last
        known address — the normal backoff loop covers that window.
        """
        try:
            fresh = self._locator()
        except (ConnectionClosedError, ConnectionRefusedError_, SpaceError):
            return
        except Exception:
            return  # lookup substrate errors: keep the cached address
        if fresh is not None and fresh != self.server_address:
            self.server_address = fresh
            if self._metrics is not None:
                self._metrics.event("proxy-rediscovered", host=self.host,
                                    address=str(fresh))
        # Locators that track the primary epoch (JiniSpaceLocator) expose
        # it after each lookup; adopt it monotonically.
        learned = getattr(self._locator, "epoch", None)
        if learned is not None and (self.epoch is None
                                    or learned > self.epoch):
            self.epoch = learned

    def _drop_connection(self) -> None:
        """Discard the current connection so a late reply from a dead RPC
        can never be mistaken for the next call's answer.  Its notify
        registrations go with it (the server cancels them when the
        connection drops), so the event side is torn down too."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._event_handlers.clear()
        if self._event_listener is not None:
            self._event_listener.close()
            self._event_listener = None
        if self._event_channel is not None:
            self._event_channel.close()
            self._event_channel = None

    def _exchange(self, op: str, args: dict[str, Any],
                  waits: list[tuple[str, dict[str, Any]]]) -> Any:
        """One request/reply: send → epoch stamp → wait budget → receive.

        ``waits`` are the (op, args) pairs the server executes for this
        request — the op itself, or a batch's sub-ops in order.
        """
        return self._await_reply(self._send_request(op, args), op, waits)

    def _send_request(self, op: str, args: dict[str, Any]) -> StreamSocket:
        conn = self._connection()
        request: dict[str, Any] = {"op": op, "args": args}
        if self.epoch is not None:
            request["epoch"] = self.epoch
        conn.send(request)
        return conn

    def _await_reply(self, conn: StreamSocket, op: str,
                     waits: list[tuple[str, dict[str, Any]]]) -> Any:
        timeout_ms = self.recovery.call_timeout_ms if self.recovery else None
        if timeout_ms is not None:
            # The RPC budget covers transport + dispatch; an op's own wait
            # budget is spent server-side on purpose (sequentially, for a
            # batch's sub-ops) and must be added, not mistaken for a dead
            # connection.
            for sub_op, sub_args in waits:
                if sub_op in _BLOCKING_OPS:
                    wait = sub_args.get("timeout_ms")
                    if wait is None:
                        timeout_ms = None
                        break
                    timeout_ms += wait
        reply = conn.receive(timeout_ms=timeout_ms)
        if reply is None:
            self._drop_connection()
            raise ConnectionClosedError(f"space rpc {op!r} timed out")
        if reply.get("ok"):
            return reply.get("value")
        _raise_remote(reply, op)

    def _call_once(self, op: str, args: dict[str, Any]) -> Any:
        return self._exchange(op, args, [(op, args)])

    def _call(self, op: str, args: dict[str, Any]) -> Any:
        return self._guarded(
            op, lambda: self._call_once(op, args),
            self.recovery is not None and op in _IDEMPOTENT_OPS)

    def _guarded(self, label: str, attempt_fn: Callable[[], Any],
                 retriable: bool, **notes: Any) -> Any:
        """Run one RPC under the recovery loop, as an ``rpc.<label>`` span
        (annotated with ``notes``) when tracing."""
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return self._call_with_recovery(label, attempt_fn, retriable)
        span = self._rpc_span(f"rpc.{label}", tracer)
        span.annotate(**notes)
        with span:
            return self._call_with_recovery(label, attempt_fn, retriable)

    def _rpc_span(self, name: str, tracer: Any):
        """Open an RPC span under the caller's ambient span (if any)."""
        parent = tracer.current
        if parent is not None:
            return tracer.start(name, trace_id=parent.trace_id,
                                parent_id=parent.span_id, proc=self.host)
        return tracer.start(name, trace_id=f"rpc/{self.host}",
                            proc=self.host)

    def _call_with_recovery(self, label: str, attempt_fn: Callable[[], Any],
                            retriable: bool) -> Any:
        attempt = 0
        while True:
            try:
                return attempt_fn()
            except AdmissionError as exc:
                # Rejected *before* execution (like a fence), so the
                # re-issue is safe regardless of idempotency.  Honour the
                # server's retry-after hint, floored by the capped-exp
                # backoff schedule; the connection itself is healthy and
                # is kept.
                if self._failed or self.recovery is None:
                    raise
                attempt += 1
                if attempt > self.recovery.max_retries:
                    raise
                self.admission_rejected += 1
                if self._metrics is not None:
                    self._metrics.event(
                        "admission-rejected", host=self.host, op=label,
                        attempt=attempt, tenant=exc.tenant,
                        reason=exc.reason)
                self.network.runtime.sleep(max(
                    exc.retry_after_ms,
                    self.recovery.backoff_ms(attempt, self._rng),
                ))
            except FencedError:
                # The server rejected the request *before* executing it,
                # so re-issuing is safe regardless of idempotency.  Drop
                # the connection and retry — the reconnect path
                # re-discovers the current primary (and its epoch).
                self._drop_connection()
                if self._failed or self.recovery is None:
                    raise
                attempt += 1
                if attempt > self.recovery.max_retries:
                    raise
                self.fenced += 1
                if self._metrics is not None:
                    self._metrics.event("proxy-fenced", host=self.host,
                                        op=label, attempt=attempt)
                self.network.runtime.sleep(
                    self.recovery.backoff_ms(attempt, self._rng)
                )
            except (ConnectionClosedError, ConnectionRefusedError_):
                self._drop_connection()
                if self._failed or not retriable:
                    raise
                attempt += 1
                if attempt > self.recovery.max_retries:
                    raise
                self.retries += 1
                if self._metrics is not None:
                    self._metrics.event("proxy-retry", host=self.host,
                                        op=label, attempt=attempt)
                self.network.runtime.sleep(
                    self.recovery.backoff_ms(attempt, self._rng)
                )

    # -- request pipelining ------------------------------------------------------

    def batch(self) -> "ProxyBatch":
        """Start collecting operations for one pipelined ``batch`` RPC."""
        return ProxyBatch(self)

    def _batch_once(self, ops: list[tuple[str, dict[str, Any]]]) -> list[dict]:
        wire = {"ops": [{"op": o, "args": a} for o, a in ops]}
        return self._exchange("batch", wire, ops)["replies"]

    def _call_batch(self, ops: list[tuple[str, dict[str, Any]]]) -> list[dict]:
        # A batch is transparently retriable only if *every* sub-op is —
        # one non-idempotent passenger (write/take/commit) makes a blind
        # re-issue unsafe, exactly as for a lone call.
        names = [op for op, _ in ops]
        return self._guarded(
            "batch", lambda: self._batch_once(ops),
            self.recovery is not None
            and all(op in _IDEMPOTENT_OPS for op in names),
            ops=names)

    def close(self) -> None:
        self._drop_connection()

    # -- JavaSpace API ----------------------------------------------------------------

    def write(self, entry: Entry, txn: Optional[RemoteTransaction] = None,
              lease_ms: float = FOREVER,
              requeue: bool = False) -> dict[str, Any]:
        return self._call("write", _write_args(entry, txn, lease_ms, requeue))

    def read(self, template: Entry, txn: Optional[RemoteTransaction] = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        return _decode_one(
            self._call("read", _match_args(template, txn, timeout_ms)))

    def take(self, template: Entry, txn: Optional[RemoteTransaction] = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        return _decode_one(
            self._call("take", _match_args(template, txn, timeout_ms)))

    def read_if_exists(self, template: Entry, txn: Optional[RemoteTransaction] = None):
        return self.read(template, txn, timeout_ms=0.0)

    def take_if_exists(self, template: Entry, txn: Optional[RemoteTransaction] = None):
        return self.take(template, txn, timeout_ms=0.0)

    def count(self, template: Entry) -> int:
        return self._call("count", {"template": template, "txn_id": None})

    def exists(self, template: Entry,
               timeout_ms: Optional[float] = None) -> bool:
        """Block until a matching entry is present (non-consuming) and
        return whether one was seen — a ``read`` whose reply carries one
        bit instead of the entry."""
        return bool(self._call(
            "exists", {"template": template, "timeout_ms": timeout_ms,
                       "txn_id": None}))

    def write_all(self, entries: list[Entry],
                  txn: Optional[RemoteTransaction] = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        reply = self._call("write_all",
                           _write_all_args(entries, txn, lease_ms, requeue))
        return reply["count"]

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Optional[RemoteTransaction] = None,
                      timeout_ms: Optional[float] = None) -> list[Entry]:
        return _decode_many(self._call(
            "take_multiple",
            _take_multiple_args(template, max_entries, txn, timeout_ms)))

    def begin_take_multiple(self, template: Entry,
                            max_entries: int) -> Callable[[], list[Entry]]:
        """Split-phase, non-blocking, untransacted ``take_multiple``: the
        request goes out now; the returned function waits for the reply.

        A scatter begins one on every shard's proxy before collecting
        any, so N round trips — and N replies streaming off N hosts —
        overlap without a helper process per shard.  One request per
        connection at a time, as ever: collect before the next call on
        this proxy.  No transparent retry (a take is not idempotent); a
        connection-level failure surfaces from whichever half hit it
        and, as in the recovery loop, leaves no connection behind.
        """
        args = _take_multiple_args(template, max_entries, None, 0.0)
        lost = (ConnectionClosedError, ConnectionRefusedError_, FencedError)
        try:
            conn = self._send_request("take_multiple", args)
        except lost:
            self._drop_connection()
            raise
        tracer = self._tracer
        span = (self._rpc_span("rpc.take_multiple", tracer)
                if tracer is not None and tracer.enabled else None)

        def collect() -> list[Entry]:
            try:
                return _decode_many(self._await_reply(
                    conn, "take_multiple", [("take_multiple", args)]))
            except lost:
                self._drop_connection()
                raise
            finally:
                if span is not None:
                    span.end()

        return collect

    def contents(self, template: Entry,
                 txn: Optional[RemoteTransaction] = None) -> list[Entry]:
        return self._call(
            "contents",
            {"template": template, "txn_id": txn.txn_id if txn else None},
        )

    def transaction(self, timeout_ms: float = FOREVER) -> RemoteTransaction:
        txn_id = self._call("txn_create", {"timeout_ms": timeout_ms})
        return RemoteTransaction(self, txn_id)

    def ping(self) -> bool:
        reply = self._call("ping", {})
        return bool(reply) and bool(reply.get("pong"))

    # -- notify ---------------------------------------------------------------------

    def notify(
        self,
        template: Entry,
        listener: Callable[[RemoteEvent], Any],
        lease_ms: float = FOREVER,
        runtime: Optional[Runtime] = None,
    ) -> int:
        """Register for remote events; ``listener`` runs in the delivery
        event of each one (``runtime`` schedules the first accept).

        A registration lives as long as the connection it was made on —
        check :meth:`listening` and register again after a reconnect.
        """
        if runtime is None:
            raise SpaceError("notify over a proxy needs the runtime to pump events")

        def attempt() -> int:
            # Connect first: a fresh connection starts without an event
            # side, and the request must name a port that is listening.
            self._connection()
            if self._event_listener is None:
                event_address = self.network.ephemeral(self.host)
                self._event_listener = self.network.listen(event_address)
                self._event_port = event_address.port
                on_dial = partial(self._on_event_dial, self._event_listener)
                self._event_listener.serve(on_dial)
                runtime.call_later(0.0, on_dial)
            return self._call_once(
                "notify",
                {"template": template, "lease_ms": lease_ms,
                 "host": self.host, "event_port": self._event_port})

        reg_id = self._guarded("notify", attempt, self.recovery is not None)
        self._event_handlers[reg_id] = listener
        return reg_id

    def listening(self, registration_id: int) -> bool:
        """True while events for ``registration_id`` can still arrive:
        its connection is up and the server has not hung up on it."""
        conn = self._conn
        return (registration_id in self._event_handlers
                and conn is not None and not conn.closed and not conn.eof)

    def _on_event_dial(self, listener: Any) -> None:
        """The server dialled back (or the listener closed first)."""
        try:
            channel = listener.poll()
        except ConnectionClosedError:
            return
        if channel is None:
            return
        if self._event_listener is not listener:
            channel.close()  # torn down while the server was dialling
            return
        self._event_channel = channel
        on_event = partial(self._on_event, channel)
        channel.serve(on_event)
        on_event()

    def _on_event(self, channel: StreamSocket) -> None:
        try:
            while (message := channel.poll()) is not None:
                handler = self._event_handlers.get(message["registration_id"])
                if handler is not None:
                    handler(
                        RemoteEvent(
                            message["source"], message["registration_id"], message["sequence"]
                        )
                    )
        except ConnectionClosedError:
            return
