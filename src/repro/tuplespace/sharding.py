"""Sharded tuple space: consistent-hash partitioning with scatter-gather.

One :class:`~repro.tuplespace.proxy.SpaceServer` is a throughput ceiling:
every entry, every drain reply, every transaction crosses one host's
link.  This module splits the space into N independent shards and puts a
:class:`ShardRouter` — a drop-in for :class:`SpaceProxy` — in front:

* **Routing rule.**  An entry (or template) with a non-``None``
  :meth:`~repro.tuplespace.entry.Entry.shard_key` routes to
  ``ring.shard_for(key)``.  An *entry* whose key is ``None`` is written
  to its class's home shard (``shard_for("class:<name>")``); a *template*
  whose key is ``None`` is a wildcard and scatter-gathers.
* **Scatter-gather.**  Wildcard ``take``/``read`` try the shards
  non-blockingly from a sticky per-client cursor, first match wins;
  ``take_multiple`` splits its cap over the shards and overlaps the
  requests (split-phase: all sent, then all collected — N replies leave
  N hosts in parallel, no process per shard); ``contents``/``count``
  merge/sum in shard-index order.  Every order is a pure function of
  the template, the cursor and the events seen, so runs replay
  deterministically.
* **The wildcard wait is event-driven.**  A blocking wildcard call does
  not poll.  Per template *class* the router keeps one ``notify``
  registration per shard (made the first time a call is about to block,
  never per call); each event bumps that shard's event count and wakes
  one local condition.  A shard is *hinted* — worth a non-blocking take
  — unless its last reply for this template was empty **and** no event
  has arrived since that request was issued; the comparison is against
  the count read *before* the request, so check-then-wait cannot lose a
  wakeup.  With nothing hinted the caller blocks locally — zero RPCs,
  zero spawned processes — until an event, or until its deadline (or,
  on long waits, every ``_RESCAN_MS``), when one full rescan covers
  events lost to a partition.  A registration lives as long as its
  proxy's connection: after a reconnect or a re-discovery (a promoted
  standby knows nothing of it) the router registers again and re-hints
  that shard.  Entries restored by an aborted take fire no event
  (JavaSpaces ``notify`` semantics) and are found by the deadline rescan.
* **Shard-local transactions.**  A :class:`ShardedTransaction` is born
  unbound and pins itself to the shard of its first operation; all later
  operations under it must hit the same shard (cross-shard use raises
  :class:`~repro.errors.SpaceError`), so commit/abort stay single-shard.
  A wildcard take under an unbound transaction binds to the first hinted
  shard that yields entries; an empty attempt is aborted and the handle
  rebinds elsewhere — its holder never sees the move.
* **Batched prefetch.**  :class:`ShardedBatch` mirrors
  :class:`~repro.tuplespace.proxy.ProxyBatch`: consecutive same-shard
  operations ride one pipelined RPC, and the worker's steady-state
  write_all + commit + txn_create + take_multiple cycle collapses to a
  single RPC to the shard its cursor rests on.

With a single shard the router degenerates to a pass-through (every key
routes to shard 0 with the original blocking timeouts), so ``shards=1``
reproduces the unsharded wire behaviour.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from hashlib import blake2b
from typing import Any, Callable, Optional

from repro.errors import AdmissionError, NetworkError, SpaceError
from repro.net.address import Address
from repro.net.network import Network
from repro.tuplespace.entry import Entry, match_items
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.proxy import (
    ProxyBatch,
    RecoveryPolicy,
    RemoteTransaction,
    SpaceProxy,
)

__all__ = ["stable_hash", "HashRing", "ShardRouter", "ShardedTransaction",
           "ShardedBatch"]


def stable_hash(key: Any) -> int:
    """Process-independent 64-bit hash of a routable key.

    Python's builtin ``hash`` is salted per process, so it would route
    the same ``task_id`` to different shards on master and workers.  The
    key is type-tagged before hashing so ``1`` and ``"1"`` cannot
    collide by repr.
    """
    data = f"{type(key).__name__}:{key!r}".encode()
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring over ``shards`` with virtual nodes.

    Each shard owns ``vnodes`` points on a 64-bit ring; a key belongs to
    the first point clockwise of its hash.  Adding shard ``N`` only adds
    points, so keys either stay put or move *to the new shard* — the
    remapped fraction concentrates near ``1/(N+1)``.
    """

    def __init__(self, shards: int, vnodes: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        points = sorted(
            (stable_hash(f"shard:{s}:vnode:{v}"), s)
            for s in range(shards)
            for v in range(vnodes)
        )
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, key: Any) -> int:
        if self.shards == 1:
            return 0
        index = bisect_right(self._hashes, stable_hash(key)) % len(self._hashes)
        return self._owners[index]


#: ``txn_id`` of a transaction that has no server-side counterpart yet.
#: A dict on purpose: callers that guard "never created server-side" with
#: ``isinstance(txn.txn_id, dict)`` (the worker's batch carry does) treat
#: an unbound sharded transaction exactly like an unflushed batch_ref.
_UNBOUND = {"unbound": True}


class ShardedTransaction:
    """A lazily bound, shard-pinned transaction handle.

    Matches the :class:`~repro.tuplespace.proxy.RemoteTransaction`
    surface (``txn_id``/``completed``/``commit``/``abort``/context
    manager) so worker and master code cannot tell the difference.
    """

    def __init__(self, router: "ShardRouter", timeout_ms: float = FOREVER) -> None:
        self._router = router
        self._timeout_ms = timeout_ms
        self._remote: Optional[RemoteTransaction] = None
        self.shard: Optional[int] = None
        self.completed = False

    @property
    def txn_id(self) -> Any:
        return self._remote.txn_id if self._remote is not None else dict(_UNBOUND)

    def _bind(self, shard: int) -> RemoteTransaction:
        """Pin to ``shard`` (creating the server transaction on demand)."""
        if self._remote is not None:
            if self.shard != shard:
                raise SpaceError(
                    f"cross-shard operation under a shard-local transaction: "
                    f"bound to shard {self.shard}, operation routes to "
                    f"shard {shard}")
            return self._remote
        self._remote = self._router._proxies[shard].transaction(self._timeout_ms)
        self.shard = shard
        return self._remote

    def _adopt(self, shard: int, remote: RemoteTransaction) -> None:
        """Bind to a transaction created inside a pipelined batch."""
        self._remote = remote
        self.shard = shard

    def _unbind_quietly(self) -> None:
        """Abort the current server transaction (it took nothing — only
        an empty attempt unbinds) and return to the unbound state so the
        next attempt can pin a different shard."""
        remote, self._remote, self.shard = self._remote, None, None
        if remote is None or remote.completed:
            return
        try:
            remote.abort()
        except SpaceError:
            pass  # expired server-side; nothing held either way

    def commit(self) -> None:
        if self._remote is not None and not self._remote.completed:
            self._remote.commit()
        self.completed = True

    def abort(self) -> None:
        if self._remote is not None and not self._remote.completed:
            self._remote.abort()
        self.completed = True

    def __enter__(self) -> "ShardedTransaction":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if self.completed:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class ShardedBatch:
    """Pipelined batch over a :class:`ShardRouter`.

    Mirrors :class:`~repro.tuplespace.proxy.ProxyBatch`: record
    operations, then :meth:`flush` returns per-op values in order and
    re-raises the first failure.  Consecutive operations that resolve to
    the same shard ride one :class:`ProxyBatch` RPC; wildcard operations
    execute as scatter-gather at their position in the sequence.

    A trailing ``txn_create`` + wildcard ``take``/``take_multiple`` pair
    (the worker's prefetch) is executed as one unit through the router's
    wildcard wait, starting at the preceding run's shard — so the
    write-back and the prefetch that finds tasks there (the steady
    state) are a single RPC.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router
        self._ops: list[dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._ops)

    def _add(self, op: dict[str, Any]) -> int:
        self._ops.append(op)
        return len(self._ops) - 1

    # -- the batchable operation set ----------------------------------------

    def write(self, entry: Entry, txn: Any = None,
              lease_ms: float = FOREVER, requeue: bool = False) -> int:
        return self._add({"kind": "write", "entry": entry, "txn": txn,
                          "lease_ms": lease_ms, "requeue": requeue})

    def write_all(self, entries: list[Entry], txn: Any = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        return self._add({"kind": "write_all", "entries": list(entries),
                          "txn": txn, "lease_ms": lease_ms,
                          "requeue": requeue})

    def read(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        return self._add({"kind": "read", "template": template, "txn": txn,
                          "timeout_ms": timeout_ms})

    def take(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        return self._add({"kind": "take", "template": template, "txn": txn,
                          "timeout_ms": timeout_ms})

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Any = None,
                      timeout_ms: Optional[float] = 0.0) -> int:
        return self._add({"kind": "take_multiple", "template": template,
                          "max_entries": max_entries, "txn": txn,
                          "timeout_ms": timeout_ms})

    def count(self, template: Entry) -> int:
        return self._add({"kind": "count", "template": template, "txn": None})

    def txn_create(self, timeout_ms: float = FOREVER) -> ShardedTransaction:
        """Open a transaction inside this batch.

        The handle stays unbound until an operation pins it to a shard;
        when its first use is the trailing prefetch take, creation rides
        that take's RPC (the ``batch_ref`` trick, per shard)."""
        txn = ShardedTransaction(self._router, timeout_ms)
        self._add({"kind": "txn_create", "txn": txn,
                   "timeout_ms": timeout_ms})
        return txn

    def commit(self, txn: ShardedTransaction) -> int:
        return self._add({"kind": "commit", "txn": txn})

    def abort(self, txn: ShardedTransaction) -> int:
        return self._add({"kind": "abort", "txn": txn})

    # -- execution -----------------------------------------------------------

    def flush(self) -> list[Any]:
        ops, self._ops = self._ops, []
        if not ops:
            return []
        results: list[Any] = [None] * len(ops)
        tail_start = self._split_tail(ops)
        pending = self._run_head(ops[:tail_start], results)
        if tail_start < len(ops):
            self._run_tail(ops, tail_start, results, pending)
        elif pending is not None:
            self._flush_run(pending, results)
        return results

    def _split_tail(self, ops: list[dict[str, Any]]) -> int:
        """Index where the trailing prefetch group starts (or ``len``).

        The group is a final *wildcard* ``take``/``take_multiple`` under
        an unbound :class:`ShardedTransaction`, plus — if adjacent — the
        ``txn_create`` that minted it."""
        last = ops[-1]
        if last["kind"] not in ("take", "take_multiple"):
            return len(ops)
        txn = last.get("txn")
        if not isinstance(txn, ShardedTransaction) or txn._remote is not None:
            return len(ops)
        if self._router._template_shard(last["template"]) is not None:
            return len(ops)
        if (len(ops) >= 2 and ops[-2]["kind"] == "txn_create"
                and ops[-2]["txn"] is txn):
            return len(ops) - 2
        return len(ops) - 1

    def _run_head(self, head: list[dict[str, Any]],
                  results: list[Any]) -> Optional[tuple]:
        """Execute the head; return the final unflushed same-shard run so
        the tail can try to piggyback on its RPC."""
        router = self._router
        pending: Optional[tuple] = None  # (shard, ProxyBatch, [(op_i, pb_i, op)])
        for index, op in enumerate(head):
            shard = self._resolve_shard(op)
            if shard is None:
                if self._is_local_noop(op):
                    results[index] = self._scatter_op(op)
                    continue
                if pending is not None:
                    self._flush_run(pending, results)
                    pending = None
                results[index] = self._scatter_op(op)
                continue
            if pending is not None and pending[0] != shard:
                self._flush_run(pending, results)
                pending = None
            if pending is None:
                pending = (shard, router._proxies[shard].batch(), [])
            pb_index = self._emit(pending[1], op, shard)
            pending[2].append((index, pb_index, op))
        return pending

    def _resolve_shard(self, op: dict[str, Any]) -> Optional[int]:
        """The shard a head operation belongs to (``None`` = scatter)."""
        router = self._router
        kind = op["kind"]
        txn = op.get("txn")
        if kind == "write":
            return router._entry_shard(op["entry"])
        if kind == "write_all":
            shards = {router._entry_shard(e) for e in op["entries"]}
            if len(shards) == 1:
                return shards.pop()
            if txn is not None:
                raise SpaceError(
                    "cross-shard write_all under a shard-local transaction")
            return None
        if kind in ("read", "take", "take_multiple"):
            shard = router._template_shard(op["template"])
            if shard is not None:
                return shard
            if isinstance(txn, ShardedTransaction) and txn._remote is not None:
                return txn.shard  # wildcard under a pinned txn stays local
            return None
        if kind in ("commit", "abort"):
            if isinstance(txn, ShardedTransaction):
                # Unbound: never materialized server-side, completing it
                # is a client-local no-op (handled by _scatter_op).
                return txn.shard if txn._remote is not None else None
            return None
        if kind == "txn_create":
            # Creation is lazy — the first operation that uses the handle
            # pins it.  Nothing to send here.
            return None
        raise SpaceError(f"unknown batched operation {kind!r}")

    @staticmethod
    def _is_local_noop(op: dict[str, Any]) -> bool:
        """True for operations with no server-side work: deferred
        txn_create, and commit/abort of a still-unbound transaction.
        These need no sequencing against a pending same-shard run."""
        kind = op["kind"]
        if kind == "txn_create":
            return True
        txn = op.get("txn")
        return (kind in ("commit", "abort")
                and isinstance(txn, ShardedTransaction)
                and txn._remote is None)

    def _scatter_op(self, op: dict[str, Any]) -> Any:
        """Execute one non-routable operation at its sequence position."""
        router = self._router
        kind = op["kind"]
        txn = op.get("txn")
        if kind == "txn_create":
            return None  # bound (and created) on first use
        if kind in ("commit", "abort"):
            if txn is not None:
                (txn.commit if kind == "commit" else txn.abort)()
            return None
        if kind == "write_all":
            return {"count": router.write_all(op["entries"], txn=txn,
                                              lease_ms=op["lease_ms"],
                                              requeue=op.get("requeue", False))}
        if kind == "read":
            return router.read(op["template"], txn=txn,
                               timeout_ms=op["timeout_ms"])
        if kind == "take":
            return router.take(op["template"], txn=txn,
                               timeout_ms=op["timeout_ms"])
        if kind == "take_multiple":
            return router.take_multiple(op["template"], op["max_entries"],
                                        txn=txn, timeout_ms=op["timeout_ms"])
        raise SpaceError(f"unknown batched operation {kind!r}")

    def _emit(self, pb: ProxyBatch, op: dict[str, Any], shard: int) -> int:
        """Append one resolved operation to a per-shard pipeline."""
        kind = op["kind"]
        txn = op.get("txn")
        remote = None
        if isinstance(txn, ShardedTransaction):
            remote = txn._bind(shard)
        elif txn is not None:
            remote = txn
        if kind == "write":
            return pb.write(op["entry"], txn=remote, lease_ms=op["lease_ms"],
                            requeue=op.get("requeue", False))
        if kind == "write_all":
            return pb.write_all(op["entries"], txn=remote,
                                lease_ms=op["lease_ms"],
                                requeue=op.get("requeue", False))
        if kind == "read":
            return pb.read(op["template"], txn=remote,
                           timeout_ms=op["timeout_ms"])
        if kind == "take":
            return pb.take(op["template"], txn=remote,
                           timeout_ms=op["timeout_ms"])
        if kind == "take_multiple":
            return pb.take_multiple(op["template"], op["max_entries"],
                                    txn=remote, timeout_ms=op["timeout_ms"])
        if kind == "commit":
            return pb.commit(remote)
        if kind == "abort":
            return pb.abort(remote)
        raise SpaceError(f"unknown batched operation {kind!r}")

    @staticmethod
    def _flush_run(pending: tuple, results: list[Any]) -> list[Any]:
        """Send a same-shard run (plus whatever the caller appended to
        its pipeline), file the run's values under the batch's op
        indices, and return everything the pipeline answered."""
        _shard, pb, mapping = pending
        values = pb.flush()
        for op_index, pb_index, op in mapping:
            results[op_index] = values[pb_index]
            txn = op.get("txn")
            if op["kind"] in ("commit", "abort") and \
                    isinstance(txn, ShardedTransaction):
                txn.completed = True
        return values

    def _run_tail(self, ops: list[dict[str, Any]], tail_start: int,
                  results: list[Any], pending: Optional[tuple]) -> None:
        take_op = ops[-1]
        txn: ShardedTransaction = take_op["txn"]
        max_entries = take_op.get("max_entries", 1)
        got = self._router._prefetch_under_txn(
            take_op["template"], max_entries, txn,
            timeout_ms=take_op["timeout_ms"],
            multiple=take_op["kind"] == "take_multiple",
            carried=pending, carried_results=results,
        )
        if tail_start == len(ops) - 2:  # txn_create rode along
            results[-2] = txn.txn_id if txn._remote is not None else None
        results[-1] = got


#: Longest a wildcard call waits on events alone: every period (and at
#: its deadline, if sooner) it rescans all shards, which bounds what an
#: event lost to a partition can cost.
_RESCAN_MS = 10_000.0

#: Distinct templates per class whose empty marks are remembered.
_MAX_TEMPLATES = 64


def _listed(entry: Optional[Entry]) -> list[Entry]:
    return [] if entry is None else [entry]


class _Watch:
    """A router's event state for one template class.

    Registrations are per class (a field-less template matches every
    entry of it) so their number is bounded by classes x shards however
    many distinct templates wait; the empty marks are per template,
    since a shard holding nothing for one ``app_id`` may hold plenty for
    another.
    """

    def __init__(self, cls: type, shards: int) -> None:
        self.template: Entry = cls.__new__(cls)
        #: Per shard: the live registration's id, and events seen so far
        #: (also bumped on re-registration: "anything may have happened").
        self.registrations: list[Optional[int]] = [None] * shards
        self.events = [0] * shards
        #: ``match_items`` of a template → its per-shard empty marks.
        self.empty: dict[tuple, list[Optional[int]]] = {}


class ShardRouter:
    """Client stub over N shard servers with the :class:`SpaceProxy` API.

    One router per client process; each shard gets its own lazily
    connected :class:`SpaceProxy` (so per-shard failover re-discovery
    works exactly as for the single-space proxy).  The router is a
    drop-in anywhere a ``SpaceProxy`` is used — including
    ``getattr(space, "batch")`` duck-typing in the master.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        addresses: list[Address],
        ring: Optional[HashRing] = None,
        recovery: Optional[RecoveryPolicy] = None,
        rng: Any = None,
        metrics: Any = None,
        locators: Optional[list[Optional[Callable[[], Optional[Address]]]]] = None,
        tracer: Any = None,
    ) -> None:
        if not addresses:
            raise ValueError("ShardRouter needs at least one shard address")
        self.ring = ring if ring is not None else HashRing(len(addresses))
        if self.ring.shards != len(addresses):
            raise ValueError(
                f"ring has {self.ring.shards} shards but "
                f"{len(addresses)} addresses were given")
        self.network = network
        self.host = host
        self.runtime = network.runtime
        #: For "scatter" envelope spans around wildcard calls (the doctor
        #: intersects them with rpc.* spans to cost fan-out time).
        self.tracer = tracer
        self._proxies = [
            SpaceProxy(network, host, address, recovery=recovery, rng=rng,
                       metrics=metrics,
                       locator=locators[i] if locators else None,
                       tracer=tracer)
            for i, address in enumerate(addresses)
        ]
        #: Event state of the wildcard wait, per template class, and the
        #: one condition every blocked wildcard call sleeps on.
        self._watches: dict[type, _Watch] = {}
        self._wake = self.runtime.condition()
        #: Sticky scatter cursor: where wildcard scans start, and where
        #: they last found entries.  Seeded per client host so workers
        #: spread their first attempts, but stable across runs.
        self._cursor = stable_hash(f"cursor:{host}") % len(self._proxies)

    # -- client-health surface (console reads these off the worker proxy) ----

    @property
    def shards(self) -> int:
        return len(self._proxies)

    @property
    def reconnects(self) -> int:
        return sum(p.reconnects for p in self._proxies)

    @property
    def retries(self) -> int:
        return sum(p.retries for p in self._proxies)

    def fail(self) -> None:
        for proxy in self._proxies:
            proxy.fail()

    def close(self) -> None:
        for proxy in self._proxies:
            proxy.close()

    def ping(self) -> bool:
        return all(proxy.ping() for proxy in self._proxies)

    # -- routing -------------------------------------------------------------

    def _entry_shard(self, entry: Entry) -> int:
        """Where an entry is written.  ``shard_key() is None`` falls back
        to the class's home shard — such entries are findable only by
        wildcard templates (documented invariant, DESIGN.md §10)."""
        key = entry.shard_key() if isinstance(entry, Entry) else None
        if key is None:
            return self.ring.shard_for(f"class:{type(entry).__name__}")
        return self.ring.shard_for(key)

    def _template_shard(self, template: Entry) -> Optional[int]:
        """Where a template routes; ``None`` means scatter-gather."""
        if self.ring.shards == 1:
            return 0
        key = template.shard_key() if isinstance(template, Entry) else None
        return None if key is None else self.ring.shard_for(key)

    def _scan_order(self, first: Optional[int] = None) -> list[int]:
        """Every shard once: ``first`` (if any), then from the cursor."""
        n = len(self._proxies)
        start = self._cursor % n
        order = [(start + i) % n for i in range(n)]
        if first is not None:
            order.remove(first)
            order.insert(0, first)
        return order

    def _txn_for(self, txn: Any, shard: int) -> Optional[RemoteTransaction]:
        if txn is None:
            return None
        if isinstance(txn, ShardedTransaction):
            return txn._bind(shard)
        return txn  # a raw RemoteTransaction: the caller owns its shard

    # -- JavaSpace API ---------------------------------------------------------

    def write(self, entry: Entry, txn: Any = None,
              lease_ms: float = FOREVER, requeue: bool = False) -> dict[str, Any]:
        shard = self._entry_shard(entry)
        return self._proxies[shard].write(entry, txn=self._txn_for(txn, shard),
                                          lease_ms=lease_ms, requeue=requeue)

    def write_all(self, entries: list[Entry], txn: Any = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        if not entries:
            return 0
        groups: dict[int, list[Entry]] = {}
        for entry in entries:
            groups.setdefault(self._entry_shard(entry), []).append(entry)
        if txn is not None and len(groups) > 1:
            raise SpaceError(
                "cross-shard write_all under a shard-local transaction")
        if len(groups) == 1 or txn is not None:
            total = 0
            for shard in sorted(groups):
                total += self._proxies[shard].write_all(
                    groups[shard], txn=self._txn_for(txn, shard),
                    lease_ms=lease_ms, requeue=requeue)
            return total
        # Untransacted bulk write: one write_all per touched shard, all in
        # flight at once (seeding a large job shouldn't pay one round trip
        # per shard in series).  Each shard's admission check is
        # pre-dispatch-atomic for *its* group, but the scatter as a whole
        # is not: when one shard rejects after others admitted, the
        # surfaced AdmissionError names the entries that landed — blind
        # retry of the full list would duplicate them (and the history
        # would wrongly swear they never existed).
        shards = sorted(groups)
        outcomes = self._fan_out_outcomes(
            shards,
            lambda proxy, shard: proxy.write_all(groups[shard],
                                                 lease_ms=lease_ms,
                                                 requeue=requeue))
        failures = [value for (status, value) in outcomes if status == "err"]
        if not failures:
            return sum(value for _, value in outcomes)
        for exc in failures:
            if not isinstance(exc, AdmissionError):
                raise exc  # an indeterminate outcome trumps clean rejections
        exc = failures[0]
        exc.admitted_entries = tuple(
            entry
            for shard, (status, _value) in zip(shards, outcomes)
            if status == "ok"
            for entry in groups[shard])
        raise exc

    def read(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        shard = self._route_for_acquire(template, txn)
        if shard is not None:
            return self._proxies[shard].read(
                template, txn=self._txn_for(txn, shard), timeout_ms=timeout_ms)
        got = self._gather("read", template, timeout_ms, self._first_match(
            lambda shard: _listed(self._proxies[shard].read(
                template, txn=txn, timeout_ms=0.0))))
        return got[0] if got else None

    def take(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        shard = self._route_for_acquire(template, txn)
        if shard is not None:
            return self._proxies[shard].take(
                template, txn=self._txn_for(txn, shard), timeout_ms=timeout_ms)
        if isinstance(txn, ShardedTransaction):
            return self._prefetch_under_txn(template, 1, txn,
                                            timeout_ms=timeout_ms,
                                            multiple=False)
        got = self._gather("take", template, timeout_ms, self._first_match(
            lambda shard: _listed(self._proxies[shard].take(
                template, txn=txn, timeout_ms=0.0))))
        return got[0] if got else None

    def read_if_exists(self, template: Entry, txn: Any = None):
        return self.read(template, txn, timeout_ms=0.0)

    def take_if_exists(self, template: Entry, txn: Any = None):
        return self.take(template, txn, timeout_ms=0.0)

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Any = None,
                      timeout_ms: Optional[float] = None) -> list[Entry]:
        shard = self._route_for_acquire(template, txn)
        if shard is not None:
            return self._proxies[shard].take_multiple(
                template, max_entries, txn=self._txn_for(txn, shard),
                timeout_ms=timeout_ms)
        if isinstance(txn, ShardedTransaction):
            return self._prefetch_under_txn(template, max_entries, txn,
                                            timeout_ms=timeout_ms,
                                            multiple=True)
        if max_entries < 1:
            raise SpaceError(f"max_entries must be >= 1: {max_entries}")
        if txn is not None:
            # A raw RemoteTransaction lives on one shard — its owner's
            # business which; whichever answers first is all it can hold.
            scan = self._first_match(
                lambda shard: self._proxies[shard].take_multiple(
                    template, max_entries, txn=txn, timeout_ms=0.0))
        else:
            scan = self._overlapped(template, max_entries)
        return self._gather("take_multiple", template, timeout_ms, scan)

    def count(self, template: Entry, txn: Any = None) -> int:
        shard = self._template_shard(template)
        if shard is not None:
            return self._proxies[shard].count(template)
        return sum(self._fan_out(
            lambda proxy, _i: proxy.count(template)))

    def contents(self, template: Entry, txn: Any = None) -> list[Entry]:
        shard = self._route_for_acquire(template, txn)
        if shard is not None:
            return self._proxies[shard].contents(
                template, txn=self._txn_for(txn, shard))
        merged: list[Entry] = []
        # Concurrent per-shard RPCs, merged in shard-index order: the
        # reply payloads leave N different hosts in parallel, and the
        # deterministic merge keeps replays byte-identical.
        for chunk in self._fan_out(
                lambda proxy, _i: proxy.contents(template)):
            merged.extend(chunk)
        return merged

    def transaction(self, timeout_ms: float = FOREVER) -> ShardedTransaction:
        return ShardedTransaction(self, timeout_ms)

    def batch(self) -> ShardedBatch:
        return ShardedBatch(self)

    def notify(self, template: Entry, listener: Callable[..., Any],
               lease_ms: float = FOREVER, runtime: Any = None) -> list[int]:
        """Register on every shard (a match may land anywhere); returns
        the per-shard registration ids in shard-index order."""
        return [proxy.notify(template, listener, lease_ms=lease_ms,
                             runtime=runtime)
                for proxy in self._proxies]

    # -- scatter-gather internals ---------------------------------------------

    def _fan_out(self, op: Callable[[SpaceProxy, int], Any]) -> list[Any]:
        """Run ``op(proxy, shard_index)`` against every shard concurrently.

        This is the "gather" in scatter-gather: one runtime process per
        shard issues the RPC, so N reply payloads stream off N hosts'
        egress links in parallel instead of serializing through a
        sequential scan.  Results come back in shard-index order; the
        first failing shard's error (again in shard order) is re-raised,
        so outcomes are deterministic.  Safe because each shard has its
        own proxy/connection — no two concurrent ops share a socket.
        """
        outcomes = self._fan_out_outcomes(range(len(self._proxies)), op)
        for status, value in outcomes:
            if status == "err":
                raise value
        return [value for _, value in outcomes]

    def _fan_out_outcomes(
        self, shards: Any,
        op: Callable[[SpaceProxy, int], Any]) -> list[tuple[str, Any]]:
        """Concurrent per-shard calls, returning every shard's outcome as
        ``("ok", value)`` or ``("err", exception)`` instead of raising —
        callers that need partial-failure semantics (scatter write_all
        under admission control) inspect the full list."""
        shards = list(shards)
        proxies = self._proxies
        if len(shards) == 1:
            try:
                return [("ok", op(proxies[shards[0]], shards[0]))]
            except Exception as exc:  # aligned with the fan-out contract
                return [("err", exc)]
        results: list[Any] = [None] * len(shards)
        remaining = [len(shards)]
        cond = self.runtime.condition()

        def call(slot: int, index: int) -> None:
            try:
                results[slot] = ("ok", op(proxies[index], index))
            except BaseException as exc:  # re-raised on the caller below
                results[slot] = ("err", exc)
            finally:
                with cond:
                    remaining[0] -= 1
                    cond.notify_all()

        for slot, index in enumerate(shards):
            self.runtime.spawn(lambda s=slot, i=index: call(s, i),
                               name=f"scatter:{self.host}:{index}")
        with cond:
            while remaining[0] > 0:
                cond.wait()
        return results

    def _route_for_acquire(self, template: Entry, txn: Any) -> Optional[int]:
        """Shard for a read/take/contents — the template's shard, else the
        transaction's pin (wildcard ops under a pinned txn stay local)."""
        shard = self._template_shard(template)
        if shard is not None:
            return shard
        if isinstance(txn, ShardedTransaction) and txn._remote is not None:
            return txn.shard
        return None

    def _deadline(self, timeout_ms: Optional[float]) -> Optional[float]:
        return None if timeout_ms is None else self.runtime.now() + timeout_ms

    def _expired(self, deadline: Optional[float]) -> bool:
        return deadline is not None and self.runtime.now() >= deadline

    # -- the wildcard wait (module docstring) ----------------------------------

    def _watch(self, template: Entry) -> tuple[_Watch, list[Optional[int]]]:
        """The template class's event state, and this template's empty
        marks: per shard, the event count as of the request whose reply
        last came back empty (``None``: not known to be empty)."""
        cls = type(template)
        watch = self._watches.get(cls)
        if watch is None:
            watch = self._watches[cls] = _Watch(cls, len(self._proxies))
        try:
            key = tuple(match_items(template))
            marks = watch.empty.get(key)
        except TypeError:
            # Unhashable field value: marks that last for this call only.
            return watch, [None] * len(self._proxies)
        if marks is None:
            if len(watch.empty) >= _MAX_TEMPLATES:
                watch.empty.clear()  # forgetting only costs a rescan
            marks = watch.empty[key] = [None] * len(self._proxies)
        return watch, marks

    def _arm(self, watch: _Watch) -> None:
        """Make sure every shard reports new ``watch`` entries to us.

        An RPC only where the registration is missing or died with its
        connection; that shard is re-hinted, since anything may have
        been written while nobody was listening."""
        for shard, proxy in enumerate(self._proxies):
            registration = watch.registrations[shard]
            if registration is not None and proxy.listening(registration):
                continue
            watch.registrations[shard] = proxy.notify(
                watch.template,
                lambda _event, s=shard: self._on_event(watch, s),
                runtime=self.runtime)
            self._on_event(watch, shard)

    def _on_event(self, watch: _Watch, shard: int) -> None:
        with self._wake:
            watch.events[shard] += 1
            self._wake.notify_all()

    def _await_hint(self, watch: _Watch, marks: list[Optional[int]],
                    deadline: Optional[float]) -> bool:
        """Block — no RPC, no spawned process — until an event hints
        some shard for this template (True), or the deadline or the
        rescan period lapses (False)."""
        budget = _RESCAN_MS
        if deadline is not None:
            budget = min(budget, max(0.0, deadline - self.runtime.now()))
        with self._wake:
            return self.runtime.wait_for(
                self._wake, lambda: marks != watch.events, timeout_ms=budget)

    def _gather(self, op: str, template: Entry, timeout_ms: Optional[float],
                scan: Callable[[list[int], _Watch, list[Optional[int]]],
                               list[Entry]],
                first: Optional[int] = None) -> list[Entry]:
        """One wildcard call: ``scan`` the hinted shards (in cursor
        order) with non-blocking takes or reads; with nothing found,
        wait for a hint and go again.

        ``first`` is scanned before anything else whether hinted or not
        (a batch run that must be sent regardless rides it).  A
        ``timeout_ms`` of 0 has nothing to wait for, so it scans every
        shard once and registers nothing.
        """
        watch, marks = self._watch(template)
        deadline = self._deadline(timeout_ms)
        everywhere = timeout_ms == 0.0
        with self._traced_scatter(op):
            while True:
                if not everywhere:
                    self._arm(watch)
                got = scan(
                    [shard for shard in self._scan_order(first)
                     if everywhere or shard == first
                     or marks[shard] != watch.events[shard]],
                    watch, marks)
                if got or timeout_ms == 0.0 or self._expired(deadline):
                    return got
                first = None
                # A lapsed wait is the safety net for lost events: scan
                # every shard once, then (deadline permitting) wait on.
                everywhere = not self._await_hint(watch, marks, deadline)

    def _first_match(self, attempt: Callable[[int], list[Entry]]):
        """Scan one shard at a time; the first to yield anything wins."""
        def scan(shards: list[int], watch: _Watch,
                 marks: list[Optional[int]]) -> list[Entry]:
            for shard in shards:
                mark = watch.events[shard]  # read before the request goes
                chunk = attempt(shard)
                marks[shard] = None if chunk else mark
                if chunk:
                    self._cursor = shard
                    return chunk
            return []
        return scan

    def _overlapped(self, template: Entry, room: int):
        """Scan for the untransacted ``take_multiple``: split ``room``
        (>= 1) over the shards, put every request on the wire, then
        collect.

        The replies leave N hosts' egress links in parallel instead of
        serializing through one shard after another (what lets a
        result-heavy drain scale with the shard count), and the split
        keeps the total within ``room`` without a sizing round.  A shard
        holding more than its share keeps the rest for the next call.
        What other shards yielded outlives one shard's failure: it is
        returned, the failed shard stays hinted, and its error
        resurfaces on the next call.
        """
        def scan(shards: list[int], watch: _Watch,
                 marks: list[Optional[int]]) -> list[Entry]:
            got: list[Entry] = []
            error = None
            # One wave covers every shard unless there are more shards
            # than room: then waves of ``room`` shards, one entry each,
            # until a wave yields.
            while shards and not got:
                wave, shards = shards[:room], shards[room:]
                share, extra = divmod(room, len(wave))
                pending = []
                for i, shard in enumerate(wave):
                    mark = watch.events[shard]
                    try:
                        pending.append((
                            shard, mark,
                            self._proxies[shard].begin_take_multiple(
                                template, share + (i < extra))))
                    except (NetworkError, SpaceError) as exc:
                        error = error or exc
                for shard, mark, collect in pending:
                    try:
                        chunk = collect()
                    except (NetworkError, SpaceError) as exc:
                        error = error or exc
                        continue
                    marks[shard] = None if chunk else mark
                    if chunk and not got:
                        self._cursor = shard
                    got.extend(chunk)
            if error is not None and not got:
                raise error
            return got
        return scan

    @contextmanager
    def _traced_scatter(self, op: str):
        """Envelope span around one wildcard scatter-gather call.

        The span covers the whole call — attempts *and* local waits —
        so the doctor intersects it with the rpc.* spans inside to
        attribute only the in-flight portion to the scatter phase.
        Purely observational: the disabled path yields immediately.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            yield
            return
        parent = tracer.current
        span = tracer.start(
            "scatter",
            trace_id=(parent.trace_id if parent is not None
                      else f"worker/{self.host}"),
            parent_id=parent.span_id if parent is not None else None,
            proc=self.host, op=op, shards=len(self._proxies))
        try:
            with tracer.activate(span):
                yield
        finally:
            span.end()

    def _prefetch_under_txn(
        self,
        template: Entry,
        max_entries: int,
        txn: ShardedTransaction,
        timeout_ms: Optional[float],
        multiple: bool,
        carried: Optional[tuple] = None,
        carried_results: Optional[list[Any]] = None,
    ) -> Any:
        """Wildcard take under a still-unbound shard-local transaction.

        Each attempt is txn_create + non-blocking take in ONE pipelined
        RPC on a hinted shard.  Entries bind the handle there; an empty
        attempt is aborted, so a worker is never stuck holding a dry
        shard while tasks pile up on another, and the rebind is
        invisible to the transaction's holder.

        ``carried`` is :class:`ShardedBatch`'s final unflushed same-shard
        run: it must go out whatever the hints say, so its shard is
        attempted first and the prefetch rides that RPC (the steady-state
        single-RPC cycle).
        """
        def attempt(shard: int) -> list[Entry]:
            nonlocal carried
            run, carried = carried, None  # rides the first attempt only
            pb = run[1] if run is not None else self._proxies[shard].batch()
            remote = pb.txn_create(txn._timeout_ms)
            if multiple:
                pb.take_multiple(template, max_entries, txn=remote,
                                 timeout_ms=0.0)
            else:
                pb.take(template, txn=remote, timeout_ms=0.0)
            values = (ShardedBatch._flush_run(run, carried_results)
                      if run is not None else pb.flush())
            txn._adopt(shard, remote)
            got = values[-1] if multiple else _listed(values[-1])
            if not got:
                txn._unbind_quietly()
            return got

        got = self._gather(
            "take_multiple" if multiple else "take", template, timeout_ms,
            self._first_match(attempt),
            first=carried[0] if carried is not None else None)
        if multiple:
            return got
        return got[0] if got else None
