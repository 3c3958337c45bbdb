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
  non-blockingly from a sticky per-client cursor, first match wins.
  ``take_multiple`` splits its cap over the shards; ``contents``/
  ``count`` ask every shard and merge/sum in shard-index order; an
  untransacted ``write_all`` sends each shard its group.  Those
  requests overlap split-phase (:meth:`SpaceProxy._begin`): all sent,
  then all collected in shard order, so N replies leave N hosts in
  parallel and the router starts no process.  Every order is a pure
  function of the template, the cursor and the events seen, so runs
  replay deterministically.
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

from repro.errors import AdmissionError, SpaceError
from repro.net.address import Address
from repro.net.network import Network
from repro.tuplespace.entry import Entry, match_items
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.ops import (
    OPS,
    Call,
    TransactionHandle,
    apply,
    batch_recorder,
    space_client,
)
from repro.tuplespace.proxy import RecoveryPolicy, RemoteTransaction, SpaceProxy

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


class ShardedTransaction(TransactionHandle):
    """A lazily bound, shard-pinned transaction handle: worker and master
    code cannot tell it from a
    :class:`~repro.tuplespace.proxy.RemoteTransaction`."""

    def __init__(self, router: "ShardRouter", timeout_ms: float = FOREVER) -> None:
        self._router = router
        self._timeout_ms = timeout_ms
        self._remote: Optional[RemoteTransaction] = None
        self.shard: Optional[int] = None
        self.completed = False

    @property
    def txn_id(self) -> Any:
        if self._remote is None:   # only a bound handle reaches a shard
            raise SpaceError("sharded transaction not bound to a shard yet")
        return self._remote.txn_id

    @property
    def opened(self) -> bool:
        return self._remote is not None and self._remote.opened

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


@batch_recorder
class ShardedBatch:
    """Pipelined batch over a :class:`ShardRouter`.

    Mirrors :class:`~repro.tuplespace.proxy.ProxyBatch`: record
    operations, then :meth:`flush` returns per-op values in order and
    re-raises the first failure.  Each call goes where the router's single
    calls go (:meth:`ShardRouter._route`).  Consecutive calls that land on
    the same shard ride one :class:`ProxyBatch` RPC; a call no single
    shard takes runs through the router (scatter-gather) at its position
    in the sequence.

    A trailing ``txn_create`` + wildcard ``take``/``take_multiple`` pair
    (the worker's prefetch) is executed as one unit through the router's
    wildcard wait, starting at the preceding run's shard — so the
    write-back and the prefetch that finds tasks there (the steady
    state) are a single RPC.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router
        self._calls: list[Call] = []

    def __len__(self) -> int:
        return len(self._calls)

    def _record(self, call: Call) -> int:
        self._calls.append(call)
        return len(self._calls) - 1

    def _transaction(self, timeout_ms: float) -> ShardedTransaction:
        """The handle stays unbound until an operation pins it to a
        shard; when its first use is the trailing prefetch take, creation
        rides that take's RPC (the ``batch_ref`` trick, per shard)."""
        return ShardedTransaction(self._router, timeout_ms)

    # -- execution -----------------------------------------------------------

    def flush(self) -> list[Any]:
        calls, self._calls = self._calls, []
        if not calls:
            return []
        results: list[Any] = [None] * len(calls)
        tail = self._tail_start(calls)
        router = self._router
        run: Optional[tuple] = None  # (shard, ProxyBatch, [(i, pb_i, call)])
        for index, call in enumerate(calls[:tail]):
            shard = router._route(call)
            # A run ends where a call goes to another shard or scatters; a
            # call that reaches no server needs no sequencing against it.
            if run is not None and (shard != run[0] if shard is not None
                                    else not _local(call)):
                self._flush_run(run, results)
                run = None
            if shard is None:
                results[index] = self._off_shard(call)
                continue
            if run is None:
                run = (shard, router._proxies[shard].batch(), [])
            pb_index = apply(run[1], router._pinned(call, shard))
            run[2].append((index, pb_index, call))
        if tail < len(calls):
            # The last run, unflushed, rides the prefetch's first attempt.
            take = calls[-1]
            results[-1] = router._prefetch_under_txn(take, run, results)
            if tail == len(calls) - 2:  # txn_create rode along
                bound = take.txn._remote is not None
                results[-2] = take.txn.txn_id if bound else None
        elif run is not None:
            self._flush_run(run, results)
        return results

    def _tail_start(self, calls: list[Call]) -> int:
        """Index where the trailing prefetch group starts (or ``len``).

        The group is a final *wildcard* ``take``/``take_multiple`` under
        an unbound :class:`ShardedTransaction`, plus — if adjacent — the
        ``txn_create`` that minted it."""
        last = calls[-1]
        if not self._router._prefetches(last):
            return len(calls)
        if (len(calls) >= 2 and calls[-2].op == "txn_create"
                and calls[-2].txn is last.txn):
            return len(calls) - 2
        return len(calls) - 1

    def _off_shard(self, call: Call) -> Any:
        """Execute a call no single shard takes, at its position."""
        row = OPS[call.op]
        if row.route == "local":
            return None  # txn_create: bound (and created) on first use
        if row.route == "txn":
            # Completing a transaction that never bound is client-local.
            return getattr(call.txn, row.method)()
        value = apply(self._router, call)
        # A batch answers write_all in its wire form, wherever it ran.
        return {"count": value} if row.reply == "count" else value

    @staticmethod
    def _flush_run(pending: tuple, results: list[Any]) -> list[Any]:
        """Send a same-shard run (plus whatever the caller appended to
        its pipeline), file the run's values under the batch's op
        indices, and return everything the pipeline answered."""
        _shard, pb, mapping = pending
        values = pb.flush()
        for op_index, pb_index, call in mapping:
            results[op_index] = values[pb_index]
            if OPS[call.op].route == "txn":
                call.txn.completed = True
        return values


def _local(call: Call) -> bool:
    """True for a call no shard takes that has no server-side work: a
    deferred ``txn_create``, or completing a still-unbound transaction."""
    route = OPS[call.op].route
    return route == "local" or (
        route == "txn" and isinstance(call.txn, ShardedTransaction))


#: Longest a wildcard call waits on events alone: every period (and at
#: its deadline, if sooner) it rescans all shards, which bounds what an
#: event lost to a partition can cost.
_RESCAN_MS = 10_000.0

#: Distinct templates per class whose empty marks are remembered.
_MAX_TEMPLATES = 64


def _listed(entry: Optional[Entry]) -> list[Entry]:
    return [] if entry is None else [entry]


def _settle(pending: list[Callable[[], Any]]) -> list[tuple[bool, Any]]:
    """Collect every begun call (:meth:`SpaceProxy._begin`) in order, as
    ``(True, value)`` or ``(False, error)``: one shard's failure must not
    leave a later shard's reply unread on its connection."""
    outcomes = []
    for collect in pending:
        try:
            outcomes.append((True, collect()))
        except Exception as exc:
            outcomes.append((False, exc))
    return outcomes


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


@space_client
class ShardRouter:
    """Client stub over N shard servers with the :class:`SpaceProxy` API.

    One router per client process; each shard gets its own lazily
    connected :class:`SpaceProxy` (so per-shard failover re-discovery
    works exactly as for the single-space proxy).  The router is a
    drop-in anywhere a ``SpaceProxy`` is used — including
    ``getattr(space, "batch")`` duck-typing in the master.  It runs on
    its caller's process and starts none: a request to several shards
    at once is begun on each shard's proxy, then collected in order,
    and each follows its proxy's one recovery rule.
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

    @staticmethod
    def _pinned(call: Call, shard: int) -> Call:
        """``call`` with its shard-local transaction pinned to ``shard``
        (a raw RemoteTransaction is the caller's to place)."""
        if isinstance(call.txn, ShardedTransaction):
            return call._replace(txn=call.txn._bind(shard))
        return call

    def _route(self, call: Call) -> Optional[int]:
        """The one shard ``call`` goes to, by its row's route (``None``:
        no single shard takes it — it scatters, or reaches no server)."""
        route = OPS[call.op].route
        if route == "entry":
            return self._entry_shard(call.subject)
        if route == "entries":
            shards = {self._entry_shard(entry) for entry in call.subject}
            if len(shards) > 1 and call.txn is not None:
                raise SpaceError(
                    "cross-shard write_all under a shard-local transaction")
            return shards.pop() if len(shards) == 1 else None
        if route == "template":
            shard = self._template_shard(call.subject)
            if shard is not None:
                return shard
        # A wildcard, commit or abort under a shard-local transaction goes
        # to its pin (None while unbound: it holds nothing yet).
        if route in ("template", "txn") and isinstance(call.txn,
                                                        ShardedTransaction):
            return call.txn.shard
        return None

    # -- JavaSpace API: write/read/take/... come from ``space_client`` ---------

    def _invoke(self, call: Call) -> Any:
        """Send ``call`` to its shard's proxy, pinning its transaction
        there; a call no single shard takes scatter-gathers."""
        shard = self._route(call)
        if shard is not None:
            return apply(self._proxies[shard], self._pinned(call, shard))
        if self._prefetches(call):
            return self._prefetch_under_txn(call)
        return getattr(self, f"_scatter_{call.op}")(call)

    def _prefetches(self, call: Call) -> bool:
        """A wildcard take under a still-unbound shard-local transaction:
        it binds where it finds entries (:meth:`_prefetch_under_txn`)."""
        return (call.op in ("take", "take_multiple")
                and isinstance(call.txn, ShardedTransaction)
                and self._route(call) is None)

    def _scatter_write_all(self, call: Call) -> int:
        """Untransacted bulk write: one write_all per touched shard, all
        in flight at once (seeding a large job shouldn't pay one round
        trip per shard in series).  The sum when every shard succeeds.

        Each shard's admission check is pre-dispatch-atomic for *its*
        group, but the scatter as a whole is not: when one shard rejects
        after others admitted, the surfaced AdmissionError names the
        entries that landed — blind retry of the full list would
        duplicate them (and the history would wrongly swear they never
        existed)."""
        groups: dict[int, list[Entry]] = {}
        for entry in call.subject:
            groups.setdefault(self._entry_shard(entry), []).append(entry)
        shards = sorted(groups)
        outcomes = _settle([
            self._proxies[shard]._begin(call._replace(subject=groups[shard]))
            for shard in shards])
        failures = [value for ok, value in outcomes if not ok]
        if not failures:
            return sum(value for _, value in outcomes)
        for exc in failures:
            if not isinstance(exc, AdmissionError):
                raise exc  # an indeterminate outcome trumps clean rejections
        exc = failures[0]
        exc.admitted_entries = tuple(
            entry
            for shard, (ok, _value) in zip(shards, outcomes)
            if ok
            for entry in groups[shard])
        raise exc

    def _first_hit(self, call: Call,
                   attempt: Optional[Callable[[int], Any]] = None,
                   first: Optional[int] = None) -> Any:
        """Answer ``call`` from one shard at a time, in scan order: the
        first whose ``attempt`` — by default ``call`` made non-blocking
        there — yields anything wins."""
        if attempt is None:
            probe = call._replace(timeout_ms=0.0)

            def attempt(shard: int) -> Any:
                return apply(self._proxies[shard], probe)

        listed = _listed if OPS[call.op].reply == "first" else list

        def scan(shards: list[int], watch: _Watch,
                 marks: list[Optional[int]]) -> list[Entry]:
            for shard in shards:
                mark = watch.events[shard]  # read before the request goes
                chunk = listed(attempt(shard))
                marks[shard] = None if chunk else mark
                if chunk:
                    self._cursor = shard
                    return chunk
            return []

        got = self._gather(call, scan, first)
        if OPS[call.op].reply == "list":
            return got
        return got[0] if got else None

    _scatter_read = _scatter_take = _first_hit

    def _scatter_take_multiple(self, call: Call) -> list[Entry]:
        if call.max_entries < 1:
            raise SpaceError(f"max_entries must be >= 1: {call.max_entries}")
        if call.txn is not None:
            # A raw RemoteTransaction lives on one shard — its owner's
            # business which; whichever answers first is all it can hold.
            return self._first_hit(call)
        return self._gather(call, self._overlapped(call.subject,
                                                   call.max_entries))

    def _everywhere(self, call: Call) -> list[Any]:
        """``call`` on every shard at once, answers in shard-index order:
        the reply payloads leave N different hosts in parallel, and the
        deterministic order keeps replays byte-identical.  The first
        failing shard's error, in shard order, is raised.  A wildcard
        under no pinned transaction gets here; an unbound one holds
        nothing yet, so every shard answers without it."""
        bare = call._replace(txn=None)
        values = []
        for ok, value in _settle([proxy._begin(bare)
                                  for proxy in self._proxies]):
            if not ok:
                raise value
            values.append(value)
        return values

    def _scatter_count(self, call: Call) -> int:
        return sum(self._everywhere(call))

    def _scatter_contents(self, call: Call) -> list[Entry]:
        return [entry for chunk in self._everywhere(call) for entry in chunk]

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

    def _gather(self, call: Call,
                scan: Callable[[list[int], _Watch, list[Optional[int]]],
                               list[Entry]],
                first: Optional[int] = None) -> list[Entry]:
        """One wildcard ``call``: ``scan`` the hinted shards (in cursor
        order) with non-blocking takes or reads; with nothing found,
        wait for a hint and go again.

        ``first`` is scanned before anything else whether hinted or not
        (a batch run that must be sent regardless rides it).  A
        ``timeout_ms`` of 0 has nothing to wait for, so it scans every
        shard once and registers nothing.
        """
        timeout_ms = call.timeout_ms
        watch, marks = self._watch(call.subject)
        deadline = self._deadline(timeout_ms)
        everywhere = timeout_ms == 0.0
        with self._traced_scatter(call.op):
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
                before, pending = [], []
                for i, shard in enumerate(wave):
                    before.append(watch.events[shard])  # read, then send
                    pending.append(self._proxies[shard]._begin(Call(
                        "take_multiple", template, timeout_ms=0.0,
                        max_entries=share + (i < extra))))
                for shard, mark, (ok, chunk) in zip(wave, before,
                                                     _settle(pending)):
                    if not ok:
                        error = error or chunk
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

    def _prefetch_under_txn(self, take: Call, carried: Optional[tuple] = None,
                            carried_results: Optional[list[Any]] = None) -> Any:
        """A wildcard ``take``/``take_multiple`` under a still-unbound
        shard-local transaction.

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
        txn: ShardedTransaction = take.txn

        def attempt(shard: int) -> Any:
            nonlocal carried
            run, carried = carried, None  # rides the first attempt only
            pb = run[1] if run is not None else self._proxies[shard].batch()
            remote = pb.txn_create(txn._timeout_ms)
            apply(pb, take._replace(txn=remote, timeout_ms=0.0))
            values = (ShardedBatch._flush_run(run, carried_results)
                      if run is not None else pb.flush())
            txn._adopt(shard, remote)
            if not values[-1]:
                txn._unbind_quietly()
            return values[-1]

        return self._first_hit(
            take, attempt, first=carried[0] if carried is not None else None)
