"""Durable tuple space: WAL-backed crash recovery and a hot standby.

:class:`DurableSpace` is a :class:`~repro.tuplespace.space.JavaSpace`
whose committed state changes flow into a
:class:`~repro.tuplespace.wal.WriteAheadLog`.  Crash recovery is
``DurableSpace.recover(runtime, store)``: decode the latest checkpoint,
stream the log tail after it, and the space matches the last *committed*
state — transactions open at the crash contributed nothing to the log,
so they are rolled back by construction (their takes reappear, their
pending writes never existed).  Checkpoint and tail are the same op
tuples through the same bulk apply
(:meth:`~repro.tuplespace.space.JavaSpace._apply_committed`).

Checkpoints are triggered by size, not by count: writing one costs the
size of the store, and what it buys is dropping the log tail, so an
automatic checkpoint waits until the tail logged since the last one is
at least as many bytes as that checkpoint was (``CHECKPOINT_TAIL_RATIO``)
— rewriting S bytes of state to drop fewer than S bytes of log loses on
both I/O and recovery time.  ``snapshot_every`` is only the floor (in
commits) that keeps a near-empty store from checkpointing on every
commit.  Amortised, a commit pays for about as many checkpoint bytes as
it logged, whatever the store holds; recovery reads the last checkpoint
plus a tail no longer than it (plus the floor).  The figures come from
the store (``tail_bytes``, ``tail_records``, ``state_bytes``), so they
survive ``recover``/``bootstrap`` — a space that crashes more often than
the floor still checkpoints.

:class:`HotStandby` is the replication consumer: it opens a ``replicate``
stream to the primary's :class:`~repro.tuplespace.proxy.SpaceServer`,
bootstraps from the checkpoint + log tail shipped in the reply (the same
checkpoint bytes the primary's store holds), then applies every streamed
commit record to its own durable space.  On ``promote()`` it stops
tailing and serves that space from a fresh ``SpaceServer`` — the
failover sequence itself (detecting the dead primary, re-registering
with Jini lookup) lives in :mod:`repro.tuplespace.failover`.
"""

from __future__ import annotations

import gc
from functools import partial
from typing import Any, Optional

from repro.errors import (
    ConnectionClosedError,
    ConnectionRefusedError_,
    NetworkError,
    SpaceError,
)
from repro.net.address import Address
from repro.net.network import Network, StreamSocket
from repro.runtime.base import Runtime
from repro.tuplespace.proxy import SpaceServer
from repro.tuplespace.space import JavaSpace
from repro.tuplespace.transaction import TransactionManager
from repro.tuplespace.wal import (
    CommitRecord,
    WalStore,
    WriteAheadLog,
    checkpoint_head,
    decode_checkpoint,
    encode_checkpoint,
)

__all__ = ["DurableSpace", "HotStandby", "CHECKPOINT_TAIL_RATIO"]

#: An automatic checkpoint waits until the log tail is this many times
#: the size of the last checkpoint (see the module docstring).
CHECKPOINT_TAIL_RATIO = 1.0


class DurableSpace(JavaSpace):
    """A JavaSpace whose committed state survives the machine.

    Once the log tail outweighs the last checkpoint (module docstring)
    and at least ``snapshot_every`` commits have passed, the committed
    store is checkpointed into the WAL's snapshot slot and the log
    truncated.  ``None`` disables automatic checkpoints (manual
    :meth:`checkpoint` only).
    """

    journaling = True

    def __init__(
        self,
        runtime: Runtime,
        name: str = "JavaSpaces",
        wal: Optional[WriteAheadLog] = None,
        snapshot_every: Optional[int] = 64,
        fsync_policy: str = "always",
        group_size: int = 64,
        group_commit_ms: Optional[float] = None,
        codec: str = "compact",
    ) -> None:
        if codec != "compact":  # keyword kept for benchmarks/suite/adapter.py
            raise SpaceError(f"unknown codec {codec!r}; expected 'compact'")
        super().__init__(runtime, name)
        if wal is None:
            wal = WriteAheadLog(
                WalStore(fsync_policy=fsync_policy, group_size=group_size),
                group_ms=group_commit_ms,
            )
        self.wal = wal
        self.wal.bind(runtime)
        self.snapshot_every = snapshot_every

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        runtime: Runtime,
        store: WalStore,
        name: str = "JavaSpaces",
        snapshot_every: Optional[int] = 64,
        group_commit_ms: Optional[float] = None,
        codec: str = "compact",
    ) -> "DurableSpace":
        """Rebuild the last committed state from a surviving WAL store.

        Raises :class:`~repro.errors.WalCorruptionError` if the
        checkpoint or the log is damaged in place (a torn log tail is
        not damage: it is dropped)."""
        # ``codec`` keyword kept for benchmarks/suite/adapter.py; the
        # constructor rejects anything but "compact".
        space = cls(runtime, name,
                    wal=WriteAheadLog(store, group_ms=group_commit_ms),
                    snapshot_every=snapshot_every, codec=codec)
        # The rebuild allocates a few acyclic objects per entry and frees
        # none, so generational passes over the growing heap find nothing
        # to collect; on a 20 000-entry store they were ~40 % of recovery.
        collecting = gc.isenabled()
        gc.disable()
        try:
            if store.snapshot is not None:
                space._install_checkpoint(store.snapshot)
            space._apply_committed(store.replay(store.snapshot_lsn))
        finally:
            if collecting:
                gc.enable()
        return space

    def sync(self) -> None:
        """Durability barrier: flush any buffered commit group."""
        self.wal.sync()

    def _install_checkpoint(self, state: bytes) -> None:
        """Replace the store's contents with a checkpoint's."""
        _, last_id, ops = decode_checkpoint(state)
        self._reset_state()
        self._apply_committed((ops,), last_id)

    # -- journaling ----------------------------------------------------------

    def _journal_ops(self, ops: list) -> None:
        self.wal.append(tuple(ops))
        self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        floor = self.snapshot_every
        if floor is None:
            return
        store = self.wal.store
        if (store.tail_bytes >= CHECKPOINT_TAIL_RATIO * store.state_bytes
                and store.tail_records >= floor):
            self._checkpoint_locked()

    def checkpoint(self) -> None:
        """Checkpoint the committed state now and truncate the log."""
        with self._lock:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        wal = self.wal
        lsn = wal.last_lsn
        last_id, ops = self._committed_state()
        state = encode_checkpoint(lsn, last_id, ops)
        wal.install_snapshot(lsn, state)
        tracer = wal.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("wal.snapshot", trace_id="wal", proc="wal",
                           lsn=lsn, entries=len(ops), bytes=len(state))

    # -- replication (standby side) -------------------------------------------

    def bootstrap(self, snapshot: Optional[bytes],
                  records: list[CommitRecord],
                  epoch: Optional[int] = None) -> None:
        """Adopt a primary's checkpoint + log tail (idempotent: anything
        at or below our current LSN is skipped, so a reconnect after a
        feed drop never regresses state).  ``epoch`` carries the
        primary's current epoch even when no commit has happened under
        it yet, so chained failovers keep strictly increasing epochs."""
        with self._lock:
            if epoch is not None:
                self.wal.set_epoch(epoch)
            if snapshot is not None:
                lsn = checkpoint_head(snapshot)[0]
                if lsn > self.wal.last_lsn:
                    self.wal.install_snapshot(lsn, snapshot)
                    self._install_checkpoint(snapshot)
            for record in records:
                if record.lsn > self.wal.last_lsn:
                    self.wal.import_record(record)
                    self._apply_committed((record.ops,))

    def apply_commit(self, record: CommitRecord) -> None:
        """Apply one streamed commit record (live replication)."""
        with self._lock:
            if record.lsn <= self.wal.last_lsn:
                return  # already covered by the bootstrap
            self.wal.import_record(record)
            self._apply_committed((record.ops,))
            self._maybe_checkpoint()


class HotStandby:
    """Tails a primary space's commit stream into a local durable replica.

    The tail loop reconnects (bounded by ``max_retries`` consecutive
    failures) so a primary *restart* resumes replication; a primary
    *death* leaves the loop backing off until a supervisor calls
    :meth:`promote`, which stops the tail and serves the caught-up
    replica on ``address``.
    """

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        host: str,
        primary_address: Address,
        address: Address,
        name: str = "JavaSpaces-standby",
        snapshot_every: Optional[int] = 64,
        retry_ms: float = 200.0,
        max_retries: int = 50,
        metrics: Any = None,
        sync_replication: bool = False,
        repl_ack_timeout_ms: float = 500.0,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.host = host
        self.primary_address = primary_address
        self.address = address
        self.space = DurableSpace(runtime, name=name,
                                  snapshot_every=snapshot_every)
        self.retry_ms = retry_ms
        self.max_retries = max_retries
        self.metrics = metrics
        #: Carried onto the server this standby becomes when promoted, so
        #: commit-gating survives a failover chain.
        self.sync_replication = sync_replication
        self.repl_ack_timeout_ms = repl_ack_timeout_ms
        self.caught_up = False
        self.promoted = False
        self.server: Optional[SpaceServer] = None
        self._running = False
        self._conn: Optional[StreamSocket] = None

    @property
    def applied_lsn(self) -> int:
        """Highest WAL frame applied to the replica — the primary's
        ``last_lsn`` minus this is the replication lag in frames."""
        return self.space.wal.last_lsn

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.runtime.spawn(self._tail, name=f"standby-tail:{self.host}")

    def stop(self) -> None:
        self._running = False
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        if self.server is not None:
            self.server.stop(drain_ms=0.0)

    def promote(self, txn_manager: Optional[TransactionManager] = None) -> SpaceServer:
        """Stop tailing and serve the replica at ``self.address``.

        The epoch is bumped *before* the first request is served, so
        every commit the new primary accepts is stamped with the new
        epoch — the deposed primary (and any proxy still bound to it)
        is fenced from that instant on.
        """
        self.promoted = True
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        self.space.wal.bump_epoch()
        self.server = SpaceServer(
            self.runtime, self.space, self.network, self.address,
            txn_manager=txn_manager,
        )
        self.server.fencing = True
        self.server.sync_replication = self.sync_replication
        self.server.repl_ack_timeout_ms = self.repl_ack_timeout_ms
        self.server.start()
        if self.metrics is not None:
            self.metrics.event("standby-promoted", host=self.host,
                               lsn=self.space.wal.last_lsn,
                               epoch=self.space.wal.epoch)
        return self.server

    # -- the tail ----------------------------------------------------------------

    _FEED_LOST = (ConnectionClosedError, ConnectionRefusedError_, NetworkError)

    def _tail(self, failures: int = 0) -> None:
        """Dial the primary and bootstrap from its reply — an honest
        blocking sequence, so a short-lived process: once caught up, the
        feed is served by :meth:`_on_feed` and the process ends."""
        while self._running and not self.promoted:
            if failures:
                if failures > self.max_retries:
                    if self.metrics is not None:
                        self.metrics.event("standby-gave-up", host=self.host)
                    return
                self.runtime.sleep(self.retry_ms)
                if not self._running or self.promoted:
                    break
            try:
                conn = self.network.connect(self.host, self.primary_address)
                self._conn = conn
                conn.send({"op": "replicate",
                           "args": {"from_lsn": self.space.wal.last_lsn}})
                reply = conn.receive(timeout_ms=None)
                if reply is None or not reply.get("ok"):
                    raise ConnectionClosedError("replication bootstrap refused")
                value = reply["value"]
                self.space.bootstrap(value["snapshot"], value["records"],
                                     epoch=value.get("epoch"))
                # Confirm what we durably hold — after the bootstrap and
                # after every applied batch.  The ack travels standby →
                # primary on the feed connection, the direction an egress
                # partition of the primary leaves open, which is what lets
                # a cut-off primary *notice* replication has stalled and
                # stop acknowledging clients (see SpaceServer.sync_replication).
                conn.send({"repl_ack": self.space.wal.last_lsn})
            except self._FEED_LOST:
                if not self._running or self.promoted:
                    return
                failures += 1
                continue
            if not self.caught_up:
                self.caught_up = True
                if self.metrics is not None:
                    self.metrics.event("standby-caught-up", host=self.host,
                                       lsn=self.space.wal.last_lsn)
            on_feed = partial(self._on_feed, conn)
            conn.serve(on_feed)
            on_feed()
            return
        self._conn = None

    def _on_feed(self, conn: StreamSocket) -> None:
        """Apply and confirm what the feed delivered; when it breaks,
        start over from a fresh bootstrap."""
        try:
            while self._running and not self.promoted:
                message = conn.poll()
                if message is None:
                    return
                # The feed ships commit *batches*: the records of one
                # kernel tick, coalesced.
                for record in message["repl_batch"]:
                    self._apply_contiguous(conn, record)
                conn.send({"repl_ack": self.space.wal.last_lsn})
            self._conn = None
        except self._FEED_LOST:
            if self._running and not self.promoted:
                self.runtime.spawn(lambda: self._tail(1),
                                   name=f"standby-tail:{self.host}")

    def _apply_contiguous(self, conn: StreamSocket, record: Any) -> None:
        """Apply one streamed record, refusing to ack across a hole.

        LSNs are dense, so a record more than one ahead means an earlier
        feed message was silently dropped (a partition eats batches
        without closing the stream).  Acking ``last_lsn`` past such a
        hole would tell the primary the missing commits are safe when
        they are gone — so tear the feed down and re-bootstrap from our
        true LSN instead; the bootstrap reply fills the gap exactly.
        """
        if record.lsn > self.space.wal.last_lsn + 1:
            have = self.space.wal.last_lsn
            conn.close()
            raise ConnectionClosedError(
                f"replication gap: have lsn {have}, got {record.lsn}")
        self.space.apply_commit(record)
