"""The tuple space engine (in-process JavaSpace).

Concurrency: one monitor lock guards the store.  Blocked ``read``/``take``
callers park on *per-template-class wait queues* — a visibility change
(write, commit, abort-restore, read-lock release) wakes only the waiters
whose template class and field values can match the affected entry, not
the whole herd.  Each waiter has its own condition sharing the store lock,
so a targeted ``notify`` costs O(matching waiters) instead of the old
``notify_all`` cost of O(all waiters) re-scans per write.

Entries are kept in per-class buckets scanned in insertion order, which
makes matching deterministic (JavaSpaces itself promises no order;
determinism is a strict strengthening that experiments rely on).  An
``entry_id → _Stored`` map gives O(1) transaction bookkeeping, and lease
expiry is driven by a deadline min-heap: ``_reap_expired`` is O(expired)
per call and free when every lease is FOREVER.

Matching: a template that selects on a field activates a ``(class,
field)`` index whose value buckets are insertion-ordered id lists of the
same kind as the class bucket's, so every operation is one walk
(:meth:`JavaSpace._matching`) over the shortest list that can hold its
matches.  For hashable values, being filed under a dict key *is* the
equality templates test, so an indexed field is never confirmed against
the entry; the confirm survives only for fields an index cannot answer
(:meth:`JavaSpace._plan`).  ``match_stats`` counts the walk.

Isolation: entries are serialized at ``write`` and the space works on
the bytes.  It reads the one or two fields it routes on straight out of
the frame (:func:`repro.util.codec.read_fields`) and never materialises
an entry it does not hand out.  Callers still never share mutable state
through the space: every ``read``/``take`` returns a fresh copy
deserialized from the stored bytes, the behaviour of the real JavaSpaces
proxy.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import EntryError, SpaceError
from repro.runtime.base import Runtime
from repro.tuplespace.entry import Entry, match_items, values_equal
from repro.tuplespace.events import EventRegistration, RemoteEvent
from repro.tuplespace.lease import FOREVER, Lease
from repro.tuplespace.transaction import Transaction
from repro.util.codec import (
    HEADER_SIZE,
    decode_any,
    encode_entry,
    peek_class,
    read_fields,
)

__all__ = ["JavaSpace", "Waiter"]


#: Stat keys, in exposition order.  Each maps to a plain ``_stat_<key>``
#: int attribute on the space (cheaper to bump on the hot path than a
#: dict item) and surfaces in the telemetry registry as ``space.<key>``.
STAT_KEYS = ("writes", "reads", "takes", "expired", "events",
             "bytes_written", "wakeups", "listener_errors")


class _SpaceStats(Mapping):
    """Read-through dict view over the space's ``_stat_*`` attributes.

    Keeps the historical ``space.stats["writes"]`` API (tests and
    benchmarks read it) while the counters themselves live as plain
    attributes that cost one integer add per operation.
    """

    __slots__ = ("_space",)

    def __init__(self, space: "JavaSpace") -> None:
        self._space = space

    def __getitem__(self, key: str) -> int:
        if key not in STAT_KEYS:
            raise KeyError(key)
        return getattr(self._space, "_stat_" + key)

    def __iter__(self) -> Iterator[str]:
        return iter(STAT_KEYS)

    def __len__(self) -> int:
        return len(STAT_KEYS)

    def __repr__(self) -> str:
        return repr(dict(self))

_AVAILABLE = "available"
_PENDING_WRITE = "pending-write"
_TAKEN = "taken"


class _Stored:
    """One entry in the store, with its lock state.

    ``cls`` and ``filed`` are recorded at write time, and field values
    are read out of ``data`` by slice (:func:`~repro.util.codec.read_fields`),
    so a frame is never decoded inside the space.
    """

    __slots__ = (
        "entry_id", "cls", "data", "lease", "state", "owner_txn",
        "read_lockers", "filed",
    )

    def __init__(self, entry_id: int, cls: type, data: bytes,
                 lease: Lease) -> None:
        self.entry_id = entry_id
        self.cls = cls                # entry class
        self.data = data              # serialized form returned to clients
        self.lease = lease
        self.state = _AVAILABLE
        self.owner_txn: Optional[Transaction] = None
        # Lazily-allocated (None ≡ empty): most entries are never read
        # under a transaction nor indexed, and the write path is hot.
        self.read_lockers: Optional[set[int]] = None  # txn ids, shared locks
        # Indexed field → the value bucket this entry is filed in.
        self.filed: Optional[dict[str, _ScanList]] = None


class _ScanList:
    """Insertion-ordered ids of one bucket: a class's entries, or the
    entries of a class that hold one value of an indexed field (``key``).

    CPython dicts never shrink and their iteration walks the dead slots
    that ``pop`` leaves behind, so a FIFO drain of a large bucket would
    make every subsequent scan start with a tombstone march.  Scans
    therefore walk this id list instead: ``head`` lazily retires the
    leading removed ids (O(1) amortized for FIFO removal, the dominant
    pattern), and ``stale`` counts the removed ids still listed so the
    list is rebuilt — live ids only — once they outnumber the rest.

    An id is live iff it is still in the class's ``id → _Stored`` dict.
    That holds for a value bucket too, because a stored entry's field
    values never change: it leaves its value buckets exactly when it
    leaves the store.
    """

    __slots__ = ("ids", "head", "stale", "key")

    def __init__(self, key: Any = None) -> None:
        self.ids: list[int] = []
        self.head = 0
        self.stale = 0
        self.key = key

    def __len__(self) -> int:
        """Live ids."""
        return len(self.ids) - self.head - self.stale


class Waiter:
    """One ``read``/``take``/``take_multiple`` that has no answer yet:
    what it matches, until when, and how to tell its caller to look again.

    ``wake`` runs under the space lock when a matching entry became
    visible or the waiter's transaction ended; the caller then repeats
    :meth:`JavaSpace._attempt`.  A process blocked in the in-process API
    passes its condition's ``notify``, a server the callable that
    schedules its continuation (:meth:`JavaSpace.retry` is its second
    look) — the queue does not know the difference.
    """

    __slots__ = ("template_cls", "items", "take", "txn", "max_entries",
                 "raw", "deadline", "wake", "woken")

    def __init__(self, template: Entry, txn: Optional[Transaction],
                 deadline: Optional[float], take: bool, max_entries: int,
                 raw: bool, wake: Optional[Callable[[], Any]]) -> None:
        self.template_cls = type(template)
        self.items = match_items(template)  # the non-None template fields
        self.take = take
        self.txn = txn
        self.max_entries = max_entries
        self.raw = raw                # answer with stored frames, undecoded
        self.deadline = deadline      # absolute ms; None waits forever
        self.wake = wake
        self.woken = False            # set by the waker; at most one wake

    def remaining(self, now: float) -> Optional[float]:
        return None if self.deadline is None else self.deadline - now


class _TxnOps:
    """Per-transaction bookkeeping inside one space."""

    __slots__ = ("writes", "takes", "reads")

    def __init__(self) -> None:
        self.writes: list[int] = []
        self.takes: list[int] = []
        self.reads: list[int] = []


def _hashable(value: Any) -> bool:
    try:
        hash(value)
        return True
    except TypeError:
        return False


def _own_frame(entry: Entry) -> tuple[type, bytes]:
    """``(class, frame)`` for an entry written in-process: the writer's
    live object is never kept, not even to index by — whatever the space
    matches on must be a private copy."""
    if not isinstance(entry, Entry):
        raise SpaceError(f"not an Entry: {type(entry).__name__}")
    return type(entry), encode_entry(entry)   # enforces the schema rule


def _wire_frame(data: bytes) -> tuple[type, bytes]:
    """``(class, frame)`` for a frame a client encoded — the door for
    outside input.  Refused before anything is stored or journalled:
    a buffer that is not ``bytes`` (a mutable one could change under the
    store, and the WAL splices frames verbatim), one that is not an
    entry frame of a schema this process knows (``peek_class`` raises),
    and a schema whose class is not an ``Entry``.  Nothing is decoded."""
    if data.__class__ is not bytes:
        raise EntryError(
            f"encoded entry must be bytes, not {type(data).__name__}")
    cls = peek_class(data)
    if not issubclass(cls, Entry):
        raise SpaceError(f"not an Entry: {cls.__name__}")
    return cls, data


class JavaSpace:
    """A shared, associative, transactional object repository."""

    #: When true, committed state changes are reported to ``_journal_ops``
    #: (overridden by :class:`repro.tuplespace.durable.DurableSpace`); the
    #: base space never pays for the hook.
    journaling = False

    def __init__(self, runtime: Runtime, name: str = "JavaSpaces") -> None:
        self.runtime = runtime
        self.name = name
        self._lock = runtime.lock()
        self._buckets: dict[type, dict[int, _Stored]] = {}
        self._scan_lists: dict[type, _ScanList] = {}  # FIFO scan order
        self._by_id: dict[int, _Stored] = {}  # O(1) entry_id lookup
        # Per-class field-value index: cls → field → value → value bucket
        # (the ids holding that value, in insertion order).
        # Built *lazily*: a (class, field) index materializes the first
        # time a template selects on that field (one bucket scan), and
        # only those activated fields are maintained on later writes.
        # The write hot path therefore pays nothing for indexing until a
        # selective reader proves the field is worth it — eager all-field
        # indexing was the single largest cost in the write/take profile.
        # Only hashable field values are indexed; templates fall back to a
        # scan for the rest.  Cuts selective matching from O(bucket) to
        # O(matches) — measured by bench_micro_space_template_selectivity.
        self._indexes: dict[type, dict[str, dict[Any, _ScanList]]] = {}
        # Fields that ever held an unhashable value (per class): the index
        # is incomplete for them (an ndarray can still equal a hashable
        # template value), so matching falls back to scanning.
        self._unindexable: dict[type, set[str]] = {}
        # Blocked callers keyed by template class; a visibility change only
        # touches the queues along the entry class's MRO.
        self._waiters: dict[type, list[Waiter]] = {}
        # Lease bookkeeping: (expiration_ms, entry_id) min-heap for finite
        # leases plus a list of explicitly cancelled entry ids, so reaping
        # is O(expired) and skips entirely when every lease is FOREVER.
        self._lease_heap: list[tuple[float, int]] = []
        self._lease_cancelled: list[int] = []
        self._ids = itertools.count(1)
        self._last_id = 0  # highest id ever issued (snapshot/replay resume)
        self._txn_ops: dict[int, _TxnOps] = {}
        self._registrations: list[EventRegistration] = []
        self._reg_ids = itertools.count(1)
        self._stat_writes = 0
        self._stat_reads = 0
        self._stat_takes = 0
        self._stat_expired = 0
        self._stat_events = 0
        self._stat_bytes_written = 0
        self._stat_wakeups = 0
        self._stat_listener_errors = 0
        # Weighted fair-share dispatch (deficit round-robin across tenants).
        # ``None`` keeps the single-tenant fast path: no take ever reads
        # a tenant field.
        self._fair_shares: Optional[dict[str, float]] = None
        self._fair_default_share = 1.0
        self._fair_class_names: frozenset[str] = frozenset()
        self._drr_deficit: dict[str, float] = {}
        #: Observational counters (``grants:<tenant>`` per DRR selection);
        #: not part of STAT_KEYS so existing telemetry goldens hold.
        self.fair_stats: dict[str, int] = {}
        #: What matching cost (same standing as ``fair_stats``):
        #: ``scan_steps`` ids examined by bucket walks, ``index_builds``
        #: field indexes activated.
        self.match_stats: dict[str, int] = {
            "scan_steps": 0, "index_builds": 0}

    @property
    def stats(self) -> _SpaceStats:
        """Read-through view of the ``_stat_*`` counters.  Built per
        access: a view stored on the space would tie the two into a
        reference cycle, and a dropped space (a crashed primary, a store
        of 20 000 entries) should be freed when its last reference goes,
        not whenever the cycle collector next runs."""
        return _SpaceStats(self)

    # ------------------------------------------------------------------ write --

    def write(
        self,
        entry: Entry,
        txn: Optional[Transaction] = None,
        lease_ms: float = FOREVER,
        requeue: bool = False,
    ) -> Lease:
        """Store ``entry``; returns its lease.

        ``requeue`` is accepted for client-API parity with
        :class:`~repro.tuplespace.proxy.SpaceProxy` and ignored here:
        admission control is a *server* concern, and the in-process
        space has no admission controller in front of it.

        Under a transaction the entry stays invisible to other transactions
        until commit.
        """
        return self._write_frames([_own_frame(entry)], txn, lease_ms)[0]

    def write_encoded(
        self,
        data: bytes,
        txn: Optional[Transaction] = None,
        lease_ms: float = FOREVER,
    ) -> Lease:
        """Store an already-encoded entry without re-serializing it.

        The zero-copy server path: a proxy client encoded the entry once,
        the bytes travelled the wire, and the space stores them verbatim
        without decoding — the class comes from the frame header.
        ``data`` must be ``bytes`` holding a frame of a registered
        ``Entry`` class (:class:`EntryError` / :class:`SpaceError`
        otherwise, with nothing stored).
        """
        return self._write_frames([_wire_frame(data)], txn, lease_ms)[0]

    def _write_frames(
        self,
        frames: list[tuple[type, bytes]],
        txn: Optional[Transaction],
        lease_ms: float,
    ) -> list[Lease]:
        """Store ``(class, frame)`` pairs under one lock hold and one
        journal record."""
        with self._lock:
            ops = None
            if txn is not None:
                txn._enlist(self)
                ops = self._ops(txn)
            leases: list[Lease] = []
            journal: list[tuple] = []
            for cls, data in frames:
                stored = self._store(cls, data, lease_ms)
                leases.append(stored.lease)
                if ops is not None:
                    stored.state = _PENDING_WRITE
                    stored.owner_txn = txn
                    ops.writes.append(stored.entry_id)
                else:
                    self._entry_became_visible(stored)
                    if self.journaling:
                        journal.append(
                            ("write", stored.entry_id, data,
                             stored.lease.expiration_ms)
                        )
            if journal:
                self._journal_ops(journal)
            return leases

    def _store(self, cls: type, data: bytes, lease_ms: float) -> _Stored:
        """Insert one serialized entry (store, id map, index, lease heap)."""
        entry_id = next(self._ids)
        self._last_id = entry_id
        cancelled = self._lease_cancelled
        lease = Lease(
            self.runtime, lease_ms,
            on_cancel=lambda eid=entry_id: cancelled.append(eid),
        )
        stored = _Stored(entry_id, cls, data, lease)
        bucket = self._buckets.get(cls)
        if bucket is None:
            bucket = self._buckets[cls] = {}
            self._scan_lists[cls] = _ScanList()
        bucket[entry_id] = stored
        self._scan_lists[cls].ids.append(entry_id)
        self._by_id[entry_id] = stored
        index = self._indexes.get(cls)
        if index:
            self._index_entry(stored, index)
        if lease.expiration_ms != FOREVER:
            heappush(self._lease_heap, (lease.expiration_ms, entry_id))
        self._stat_writes += 1
        self._stat_bytes_written += len(data)
        return stored

    # -------------------------------------------------------------- read/take --

    def read(
        self,
        template: Entry,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
    ) -> Optional[Entry]:
        """Return a copy of a matching entry, waiting up to ``timeout_ms``.

        ``timeout_ms=None`` waits forever; ``0`` polls.  Under a transaction
        the entry gets a shared lock until the transaction completes.
        """
        got = self._acquire_batch(template, txn, timeout_ms, take=False, max_entries=1)
        return got[0] if got else None

    def take(
        self,
        template: Entry,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
    ) -> Optional[Entry]:
        """Remove and return a matching entry (exactly-once semantics)."""
        got = self._acquire_batch(template, txn, timeout_ms, take=True, max_entries=1)
        return got[0] if got else None

    def read_if_exists(self, template: Entry, txn: Optional[Transaction] = None) -> Optional[Entry]:
        return self.read(template, txn, timeout_ms=0.0)

    def exists(self, template: Entry, txn: Optional[Transaction] = None,
               timeout_ms: Optional[float] = None) -> bool:
        """Non-consuming presence check: a ``read`` that reports only
        whether a match was seen."""
        return self.read(template, txn, timeout_ms=timeout_ms) is not None

    def take_if_exists(self, template: Entry, txn: Optional[Transaction] = None) -> Optional[Entry]:
        return self.take(template, txn, timeout_ms=0.0)

    # -- encoded (zero-copy) variants: results are the stored frames ----------

    def read_encoded(
        self,
        template: Entry,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
        wake: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Like :meth:`read`, but returns the stored frame bytes.

        With ``wake`` the call never blocks: where it would, it queues
        itself and returns its :class:`Waiter`; ``wake()`` then runs when
        it is worth a :meth:`retry` (the encoded takes do the same)."""
        got = self._acquire_batch(template, txn, timeout_ms, take=False,
                                  max_entries=1, raw=True, wake=wake)
        return got if got.__class__ is Waiter else got[0] if got else None

    def take_encoded(
        self,
        template: Entry,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
        wake: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Like :meth:`take`, but returns the stored frame bytes."""
        got = self._acquire_batch(template, txn, timeout_ms, take=True,
                                  max_entries=1, raw=True, wake=wake)
        return got if got.__class__ is Waiter else got[0] if got else None

    def take_multiple_encoded(
        self,
        template: Entry,
        max_entries: int,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
        wake: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Like :meth:`take_multiple`, but returns stored frame bytes."""
        if max_entries < 1:
            raise SpaceError(f"max_entries must be >= 1: {max_entries}")
        return self._acquire_batch(template, txn, timeout_ms, take=True,
                                   max_entries=max_entries, raw=True,
                                   wake=wake)

    def retry(self, waiter: Waiter) -> Optional[list]:
        """Second look of a call parked with ``wake``, after its wake or
        at its deadline: the frames, ``[]`` past the deadline, or
        ``None`` — queued again.  Raises what a blocked caller would on
        waking (its transaction ended meanwhile)."""
        with self._lock:
            if waiter.txn is not None:
                waiter.txn.ensure_active()
            return self._attempt(waiter)

    def snapshot(self, template: Entry) -> Entry:
        """Pre-serialized template (here: an isolated copy)."""
        return decode_any(encode_entry(template))

    # -- batch operations (JavaSpaces05-style extensions) ---------------------

    def write_all(
        self,
        entries: list[Entry],
        txn: Optional[Transaction] = None,
        lease_ms: float = FOREVER,
        requeue: bool = False,
    ) -> list[Lease]:
        """Write a batch of entries in one monitor pass.

        Serialization happens before the lock is taken; the store/index
        inserts share one lock acquisition, and each blocked waiter is
        woken at most once for the whole batch (it leaves its queue on the
        first notify).  Under a transaction the batch commits or rolls
        back atomically.
        """
        return self._write_frames([_own_frame(entry) for entry in entries],
                                  txn, lease_ms)

    def write_all_encoded(
        self,
        datas: list[bytes],
        txn: Optional[Transaction] = None,
        lease_ms: float = FOREVER,
    ) -> list[Lease]:
        """Batch form of :meth:`write_encoded` (one monitor pass)."""
        return self._write_frames([_wire_frame(data) for data in datas],
                                  txn, lease_ms)

    def take_multiple(
        self,
        template: Entry,
        max_entries: int,
        txn: Optional[Transaction] = None,
        timeout_ms: Optional[float] = None,
    ) -> list[Entry]:
        """Take up to ``max_entries`` matches in one monitor pass.

        JavaSpaces05 semantics: blocks (up to ``timeout_ms``) until at
        least one entry matches, then drains whatever is immediately
        available up to the cap — it does not wait for the cap to fill.
        The drain happens under a single lock acquisition instead of N
        re-entries.
        """
        if max_entries < 1:
            raise SpaceError(f"max_entries must be >= 1: {max_entries}")
        return self._acquire_batch(template, txn, timeout_ms, take=True,
                                   max_entries=max_entries)

    def contents(
        self, template: Entry, txn: Optional[Transaction] = None
    ) -> list[Entry]:
        """Copies of every currently visible matching entry (a snapshot
        iterator; does not lock or remove anything)."""
        with self._lock:
            self._reap_expired()
            return [decode_any(stored.data) for stored in self._matching(
                type(template), match_items(template), txn, take=False)]

    def _acquire_batch(
        self,
        template: Entry,
        txn: Optional[Transaction],
        timeout_ms: Optional[float],
        take: bool,
        max_entries: int,
        raw: bool = False,
        wake: Optional[Callable[[], Any]] = None,
    ) -> Any:
        if not isinstance(template, Entry):
            raise SpaceError(f"template is not an Entry: {type(template).__name__}")
        if txn is not None:
            txn.ensure_active()
        deadline = None if timeout_ms is None else self.runtime.now() + timeout_ms
        waiter = Waiter(template, txn, deadline, take, max_entries, raw, wake)
        with self._lock:
            got = self._attempt(waiter)
            if got is not None or wake is not None:
                return waiter if got is None else got
            cond = self.runtime.condition(self._lock)
            waiter.wake = cond.notify
            while True:
                try:
                    cond.wait(waiter.remaining(self.runtime.now()))
                finally:
                    self.forget(waiter)
                if txn is not None:
                    txn.ensure_active()
                got = self._attempt(waiter)
                if got is not None:
                    return got

    def _attempt(self, waiter: Waiter) -> Optional[list]:
        """One pass of a read/take (caller holds the lock): the matches,
        ``[]`` once the deadline has passed, or ``None`` with the waiter
        queued until its ``wake`` is called (or :meth:`forget`)."""
        template_cls, items = waiter.template_cls, waiter.items
        txn, take = waiter.txn, waiter.take
        if self._lease_cancelled or self._lease_heap:
            self._reap_expired()
        found: list[_Stored] = []
        if self._fair_shares is not None and self._fair_applies(
                template_cls, items, take):
            # DRR selection depends on what each claim consumes,
            # so the fair path claims as it goes.
            while len(found) < waiter.max_entries:
                stored = self._find_fair(template_cls, items, txn)
                if stored is None:
                    break
                self._claim(stored, txn, take)
                found.append(stored)
        else:
            # One walk for the whole batch.  Claiming after it is
            # equivalent: a claim never changes another collected
            # entry's visibility.
            found = self._matching(template_cls, items, txn, take,
                                   waiter.max_entries)
            for stored in found:
                self._claim(stored, txn, take)
        if found:
            if take and txn is None and self.journaling:
                # One call, one commit — however many entries.
                self._journal_ops(
                    [("take", stored.entry_id) for stored in found])
            # Zero-copy reply path (``raw``): the stored bytes ship
            # as-is and the far side decodes once.  Isolation
            # holds — bytes are immutable.
            return [stored.data if waiter.raw else decode_any(stored.data)
                    for stored in found]
        remaining = waiter.remaining(self.runtime.now())
        if remaining is not None and remaining <= 0:
            return []
        if txn is not None:
            # Enlist before parking so the transaction's completion
            # reaches _wake_txn_waiters even if this blocked call was
            # its only contact with the space.
            txn._enlist(self)
        waiter.woken = False
        self._waiters.setdefault(template_cls, []).append(waiter)
        return None

    def forget(self, waiter: Waiter) -> None:
        """Dequeue a waiter nobody woke (its timeout fired, or its
        caller went away): a woken one already left its queue."""
        if not waiter.woken:
            queue = self._waiters.get(waiter.template_cls)
            if queue and waiter in queue:
                queue.remove(waiter)

    def _claim(self, stored: _Stored, txn: Optional[Transaction],
               take: bool) -> None:
        """Consume (take) or share-lock (transactional read) one found
        entry; the caller journals an untransacted batch of takes."""
        if take:
            self._stat_takes += 1
            if txn is None:
                self._remove(stored)
            else:
                txn._enlist(self)
                stored.state = _TAKEN
                stored.owner_txn = txn
                self._ops(txn).takes.append(stored.entry_id)
        else:
            self._stat_reads += 1
            if txn is not None:
                txn._enlist(self)
                lockers = stored.read_lockers
                if lockers is None:
                    lockers = stored.read_lockers = set()
                if txn.txn_id not in lockers:
                    lockers.add(txn.txn_id)
                    self._ops(txn).reads.append(stored.entry_id)

    # ----------------------------------------------------------------- notify --

    def notify(
        self,
        template: Entry,
        listener: Callable[[RemoteEvent], Any],
        lease_ms: float = FOREVER,
    ) -> EventRegistration:
        """Register ``listener`` for entries that become visible and match.

        Events are delivered asynchronously (outside the space monitor);
        listeners must not block.
        """
        with self._lock:
            reg = EventRegistration(
                next(self._reg_ids),
                self.snapshot(template),
                listener,
                Lease(self.runtime, lease_ms),
            )
            self._registrations.append(reg)
            return reg

    # ------------------------------------------------------------ transactions --

    def _ops(self, txn: Transaction) -> _TxnOps:
        ops = self._txn_ops.get(txn.txn_id)
        if ops is None:
            ops = _TxnOps()
            self._txn_ops[txn.txn_id] = ops
        return ops

    def _complete_transaction(self, txn: Transaction, commit: bool) -> None:
        """Called by Transaction.commit/abort with the outcome."""
        with self._lock:
            # Waiters blocked *under* this transaction can never succeed
            # once it completes; wake them so they observe the abort/commit
            # instead of sleeping to their timeout.
            self._wake_txn_waiters(txn)
            ops = self._txn_ops.pop(txn.txn_id, None)
            if ops is None:
                return
            by_id = self._by_id
            # One commit = one journal batch: the transaction's *net*
            # committed effect.  Writes taken back inside the same txn and
            # anything an aborting txn touched never reach the log.
            journal: list[tuple] = []
            for entry_id in ops.writes:
                stored = by_id.get(entry_id)
                if stored is None:
                    continue
                if stored.state == _TAKEN:
                    # Written then taken inside the same transaction: the
                    # entry never becomes visible; the takes loop below
                    # settles its fate.
                    continue
                if commit:
                    stored.state = _AVAILABLE
                    stored.owner_txn = None
                    self._entry_became_visible(stored)
                    if self.journaling:
                        journal.append(
                            ("write", entry_id, stored.data,
                             stored.lease.expiration_ms)
                        )
                else:
                    self._remove(stored)
            written_here = set(ops.writes)
            for entry_id in ops.takes:
                stored = by_id.get(entry_id)
                if stored is None:
                    continue
                if commit or entry_id in written_here:
                    # Commit consumes the take; on abort, an entry this same
                    # transaction wrote was never visible, so discard it too.
                    self._remove(stored)
                    if self.journaling and commit and entry_id not in written_here:
                        journal.append(("take", entry_id))
                elif stored.lease.is_expired():
                    # The lease ran out while the take was pending; the
                    # restored entry would be invisible, so reap it now.
                    self._stat_expired += 1
                    self._remove(stored)
                else:
                    stored.state = _AVAILABLE
                    stored.owner_txn = None
                    self._wake_waiters(stored)
            for entry_id in ops.reads:
                stored = by_id.get(entry_id)
                if stored is None:
                    continue
                if stored.read_lockers is not None:
                    stored.read_lockers.discard(txn.txn_id)
                # Releasing the last shared lock can unblock a taker.
                if (not stored.read_lockers and stored.state == _AVAILABLE
                        and not stored.lease.is_expired()):
                    self._wake_waiters(stored)
            if journal:
                self._journal_ops(journal)

    def _journal_ops(self, ops: list[tuple]) -> None:
        """Hook: one atomic batch of committed state changes.

        Called under the space lock with ``("write", entry_id, data,
        expiration_ms)`` / ``("take", entry_id)`` tuples.  No-op here;
        ``DurableSpace`` appends them to its write-ahead log.
        """

    # ------------------------------------------------------- recovery internals --

    def _apply_committed(self, batches: Iterable[Iterable[tuple]],
                         last_id: int = 0) -> None:
        """Bulk-apply batches of committed ``("write", entry_id, data,
        expiration_ms)`` / ``("take", entry_id)`` ops, keeping original
        ids and absolute lease deadlines.

        Checkpoint install, WAL replay and a replicated commit all come
        through here (the caller holds the lock or owns the space
        exclusively).  A write whose id is already stored is skipped and
        a take of an absent id ignored, so re-applying a batch is
        harmless.  ``last_id`` is the highest id the source ever issued:
        the id counter resumes past it and past every id applied.
        """
        runtime = self.runtime
        now = runtime.now()
        by_id = self._by_id
        buckets = self._buckets
        scan_lists = self._scan_lists
        heap = self._lease_heap
        cancel = self._lease_cancelled.append
        remove = self._remove
        until = Lease.until
        top = max(last_id, self._last_id)
        # A frame names its class in its header: one dict probe per
        # entry resolves class, bucket and scan list, which are looked up
        # once per class instead of once per entry.
        slots: dict[bytes, tuple] = {}
        for ops in batches:
            for op in ops:
                if op[0] != "write":
                    stored = by_id.get(op[1])
                    if stored is not None:
                        remove(stored)
                    continue
                _, entry_id, data, expiration_ms = op
                if entry_id in by_id:
                    continue
                slot = slots.get(data[:HEADER_SIZE])
                if slot is None:
                    cls = peek_class(data)
                    bucket = buckets.get(cls)
                    if bucket is None:
                        bucket = buckets[cls] = {}
                        scan_lists[cls] = _ScanList()
                    slot = slots[data[:HEADER_SIZE]] = (
                        cls, bucket, scan_lists[cls], self._indexes.get(cls))
                cls, bucket, scan, index = slot
                stored = _Stored(entry_id, cls, data, until(
                    runtime, now, expiration_ms, partial(cancel, entry_id)))
                bucket[entry_id] = stored
                scan.ids.append(entry_id)
                by_id[entry_id] = stored
                if index:
                    self._index_entry(stored, index)
                if expiration_ms != FOREVER:
                    heappush(heap, (expiration_ms, entry_id))
                if entry_id > top:
                    top = entry_id
        if top > self._last_id:
            self._last_id = top
            self._ids = itertools.count(top + 1)

    def _reset_state(self) -> None:
        """Drop every stored entry and index (snapshot install on a
        standby); waiters, registrations and stats are left alone."""
        self._buckets.clear()
        self._scan_lists.clear()
        self._by_id.clear()
        self._indexes.clear()
        self._unindexable.clear()
        self._lease_heap.clear()
        self._lease_cancelled.clear()

    def _committed_state(self) -> tuple[int, list[tuple]]:
        """``(last_id, ops)``: the write ops that recreate every
        committed, unexpired entry, in id order — what a checkpoint
        holds and :meth:`_apply_committed` takes back.

        An entry under an open take (``_TAKEN``) is committed state — the
        take hasn't happened yet; a pending write is not.  Caller holds
        the lock.
        """
        return self._last_id, [
            ("write", entry_id, stored.data, stored.lease.expiration_ms)
            for entry_id, stored in self._by_id.items()
            if stored.state != _PENDING_WRITE
            and not stored.lease.is_expired()]

    # ---------------------------------------------------------------- internals --

    def _confirm(self, stored: _Stored, items: list[tuple[str, Any]]) -> bool:
        """Field-wise ``values_equal`` match of template ``items`` against
        ``stored`` — for whatever no exact index answered.  Like every
        look inside an entry the space does not hand out, a field-slice
        read of the frame (``None`` where it has no such field)."""
        got = read_fields(stored.data, tuple([name for name, _ in items]))
        for (_, value), candidate in zip(items, got):
            if not values_equal(candidate, value):
                return False
        return True

    def _file(self, cls: type, name: str, by_value: dict[Any, _ScanList],
              entry_id: int, value: Any) -> Optional[_ScanList]:
        """Append ``entry_id`` to the bucket of ``value``; None (and the
        field poisoned for good) when ``value`` is unhashable."""
        try:
            sl = by_value.get(value)
        except TypeError:
            self._unindexable.setdefault(cls, set()).add(name)
            return None
        if sl is None:
            sl = by_value[value] = _ScanList(value)
        sl.ids.append(entry_id)
        return sl

    def _index_entry(self, stored: _Stored,
                     index: dict[str, dict[Any, _ScanList]]) -> None:
        """File one inserted entry under its value of every *activated*
        field (``index``, the class's non-empty field → buckets map).

        Called from ``_store``/``_apply_committed`` only when the class
        already has at least one activated index (``_build_index`` did
        that on behalf of a selective reader) — the common write never
        gets here.  The values come out of the stored frame, never from
        a writer's live object: a key must be a private copy for the
        index to be exact (see :meth:`_plan`).  The buckets are recorded
        on ``stored`` so removal never recomputes them.
        """
        names = tuple(index)
        for name, value in zip(names, read_fields(stored.data, names)):
            if value is None:
                continue
            sl = self._file(stored.cls, name, index[name], stored.entry_id,
                            value)
            if sl is None:
                # Stop maintaining a poisoned index — _plan scans instead.
                del index[name]
            elif stored.filed is None:
                stored.filed = {name: sl}
            else:
                stored.filed[name] = sl

    def _build_index(
        self, cls: type, name: str
    ) -> Optional[dict[Any, _ScanList]]:
        """Activate the ``(cls, name)`` index: one pass over the bucket.

        Lazy-index activation point — the first template that selects on
        ``name`` pays one O(bucket) build (a field-slice read per entry,
        in insertion order), and every later write maintains the index
        incrementally.  Returns None (and poisons the field) if any
        current value is unhashable.
        """
        self.match_stats["index_builds"] += 1
        by_value: dict[Any, _ScanList] = {}
        filed: list[tuple[_Stored, _ScanList]] = []
        names = (name,)
        for stored in self._buckets[cls].values():
            value, = read_fields(stored.data, names)
            if value is None:
                continue
            sl = self._file(cls, name, by_value, stored.entry_id, value)
            if sl is None:
                return None
            filed.append((stored, sl))
        for stored, sl in filed:
            if stored.filed is None:
                stored.filed = {name: sl}
            else:
                stored.filed[name] = sl
        self._indexes.setdefault(cls, {})[name] = by_value
        return by_value

    def _retire(self, sl: _ScanList, bucket: dict[int, _Stored]) -> bool:
        """Account for one id of ``sl`` that just left ``bucket``; True
        when that was its last live id (the list is then emptied)."""
        sl.stale += 1
        listed = len(sl.ids) - sl.head
        if sl.stale == listed:
            sl.ids = []
            sl.head = sl.stale = 0
            return True
        # Mid-list staleness (selective takes): rebuild once the dead
        # outnumber what is left to scan.  Head retirement decrements
        # ``stale``, so pure FIFO drains never rebuild.
        if sl.stale >= 64 and sl.stale * 2 >= listed:
            sl.ids = [i for i in sl.ids[sl.head:] if i in bucket]
            sl.head = sl.stale = 0
        return False

    def _plan(
        self, cls: type, items: list[tuple[str, Any]]
    ) -> Optional[tuple[_ScanList, list, list]]:
        """How to enumerate the entries of ``cls`` that can match the
        template fields ``items``: ``(list to walk, membership tests,
        fields to confirm)``, or None for a definite miss.

        Selecting on a field that has no index yet *activates* it (one
        bucket pass via ``_build_index``); after that each indexed field
        is a pair of dict probes.  The shortest value bucket found is
        the list to walk; every other one becomes a membership test
        ``(name, bucket)`` — a candidate passes iff it is filed in that
        very bucket.  With no indexed field the class's own list is
        walked.  All three are in insertion order, so which list is
        walked never changes which match comes first.

        *Exactness.*  An indexed field needs no confirm: for hashable
        values, two values share a dict key iff they are equal, which is
        the relation ``values_equal`` computes — ``1``, ``1.0`` and
        ``True`` share a bucket on either path.  The one hashable value
        that is not equal to itself, NaN, can only be found in a dict by
        identity, and never is: keys are private decoded copies, so a
        NaN template misses here exactly as it does under
        ``values_equal``.  A confirm (:meth:`_confirm`, a field-slice
        read) is left for the fields no index can answer: a poisoned one
        (it once held an unhashable value, so its index would be
        incomplete — an ndarray can equal a hashable template value) and
        one whose template value is itself unhashable.
        """
        index = self._indexes.get(cls)
        poisoned = self._unindexable.get(cls)
        members: list[tuple[str, _ScanList]] = []
        confirm: list[tuple[str, Any]] = []
        for item in items:
            name, value = item
            by_value = None
            if not (poisoned and name in poisoned) and _hashable(value):
                by_value = index.get(name) if index else None
                if by_value is None:
                    by_value = self._build_index(cls, name)
                    index = self._indexes.get(cls)
                    poisoned = self._unindexable.get(cls)
            if by_value is None:
                confirm.append(item)
                continue
            sl = by_value.get(value)
            if sl is None:
                return None
            members.append((name, sl))
        if not members:
            return self._scan_lists[cls], members, confirm
        if len(members) > 1:
            members.sort(key=lambda member: len(member[1]))
        return members.pop(0)[1], members, confirm

    # ----------------------------------------------------- fair-share dispatch --

    def configure_fair_share(
        self,
        shares: dict[str, float],
        default_share: float = 1.0,
        class_names: tuple[str, ...] = ("TaskEntry",),
    ) -> None:
        """Enable weighted fair-share ``take`` dispatch across tenants.

        Competing takes whose template is one of ``class_names`` and does
        not pin a ``tenant`` are served by deficit round-robin: each
        selection visits the tenants that currently have a matching entry
        in sorted-name order, replenishing each visited tenant's deficit
        by ``share`` normalized to the largest present share, and serves
        the first tenant whose deficit covers one task.  Long-run grants
        converge to the configured weights; FIFO order is preserved
        within a tenant.  Entries without a tenant participate as the
        pseudo-tenant ``""`` at ``default_share``.
        """
        for tenant, share in shares.items():
            if share <= 0:
                raise SpaceError(f"tenant share must be > 0: {tenant}={share}")
        if default_share <= 0:
            raise SpaceError(f"default_share must be > 0: {default_share}")
        with self._lock:
            self._fair_shares = dict(shares)
            self._fair_default_share = float(default_share)
            self._fair_class_names = frozenset(class_names)

    def _share_of(self, tenant: str) -> float:
        shares = self._fair_shares or {}
        return shares.get(tenant, self._fair_default_share)

    def _find_fair(
        self,
        template_cls: type,
        items: list[tuple[str, Any]],
        txn: Optional[Transaction],
    ) -> Optional[_Stored]:
        """First matching entry per DRR tenant selection (take path only).

        One pass collects the FIFO-first candidate of every tenant with a
        visible match; the deficit counters then pick the tenant.  The
        pass looks up every candidate's tenant, which is why fair share
        is opt-in per space.
        """
        candidates: dict[str, _Stored] = {}
        for stored in self._matching(template_cls, items, txn, take=True):
            tenant = self._tenant_of(stored)
            if tenant not in candidates:
                candidates[tenant] = stored
        if not candidates:
            return None
        if len(candidates) == 1:
            (tenant, stored), = candidates.items()
            self._drr_deficit.pop(tenant, None)  # classic DRR: reset solo queue
            key = f"grants:{tenant or '-'}"
            self.fair_stats[key] = self.fair_stats.get(key, 0) + 1
            return stored
        chosen = self._drr_select(sorted(candidates))
        return candidates[chosen]

    def _tenant_of(self, stored: _Stored) -> str:
        """The entry's tenant (``""`` for none), off the key of the
        bucket it is filed in: the DRR pass activates the ``tenant``
        index, and from then on costs a dict probe per candidate, not a
        frame read.  (A poisoned index — an unhashable tenant — leaves
        the read.)"""
        cls = stored.cls
        by_value = self._indexes.get(cls, {}).get("tenant")
        if by_value is None and "tenant" not in self._unindexable.get(cls, ()):
            by_value = self._build_index(cls, "tenant")
        if by_value is None:
            return read_fields(stored.data, ("tenant",))[0] or ""
        sl = stored.filed.get("tenant") if stored.filed else None
        return sl.key if sl is not None else ""

    def _drr_select(self, present: list[str]) -> str:
        """Deficit-round-robin tenant pick among the tenants ``present``.

        Deficits of tenants that dropped out (drained queue) reset to
        zero, the classic DRR rule that stops an idle tenant hoarding
        unbounded credit.
        """
        deficit = self._drr_deficit
        for tenant in list(deficit):
            if tenant not in present:
                del deficit[tenant]
        quantum = 1.0 / max(self._share_of(t) for t in present)
        while True:
            for tenant in present:
                if deficit.get(tenant, 0.0) >= 1.0:
                    deficit[tenant] -= 1.0
                    key = f"grants:{tenant or '-'}"
                    self.fair_stats[key] = self.fair_stats.get(key, 0) + 1
                    return tenant
            for tenant in present:
                deficit[tenant] = (deficit.get(tenant, 0.0)
                                   + self._share_of(tenant) * quantum)

    def _fair_applies(
        self, template_cls: type, items: list[tuple[str, Any]], take: bool
    ) -> bool:
        return (take and self._fair_shares is not None
                and template_cls.__name__ in self._fair_class_names
                and not any(name == "tenant" for name, _ in items))

    def _matching(
        self,
        template_cls: type,
        items: list[tuple[str, Any]],
        txn: Optional[Transaction],
        take: bool,
        limit: Optional[int] = None,
    ) -> list[_Stored]:
        """The first ``limit`` (default: all) entries a ``read`` — or,
        with ``take``, a take — under ``txn`` may return for the
        template, in insertion order within each class bucket: the one
        walk behind every operation.

        Per class, :meth:`_plan` names the list to walk; leading dead ids
        are retired as a side effect.  Nothing here decodes an entry.
        """
        out: list[_Stored] = []
        steps = 0
        for cls, bucket in self._buckets.items():
            if not bucket or not issubclass(cls, template_cls):
                continue
            members = confirm = None
            if items:
                plan = self._plan(cls, items)
                if plan is None:
                    continue
                sl, members, confirm = plan
            else:
                sl = self._scan_lists[cls]
            ids = sl.ids
            get = bucket.get
            n = len(ids)
            # Retire the leading dead ids, then walk the rest.
            first = head = sl.head
            while head < n and ids[head] not in bucket:
                head += 1
            sl.stale -= head - first
            sl.head = head
            last = head - 1
            for last in range(head, n):
                stored = get(ids[last])
                if stored is None:
                    continue
                if members:
                    filed = stored.filed
                    if filed is None or any(
                            filed.get(name) is not other
                            for name, other in members):
                        continue
                # Visible: available, or this txn's own pending write; a
                # taken entry is gone from every view.
                state = stored.state
                if state != _AVAILABLE:
                    if (state == _TAKEN or txn is None
                            or stored.owner_txn is not txn):
                        continue
                if stored.lease.is_expired():
                    continue
                if (take and stored.read_lockers
                        and not self._takeable(stored, txn)):
                    continue
                if confirm and not self._confirm(stored, confirm):
                    continue
                out.append(stored)
                if len(out) == limit:
                    break
            steps += last + 1 - first
            if len(out) == limit:
                break
        self.match_stats["scan_steps"] += steps
        return out

    def _takeable(self, stored: _Stored, txn: Optional[Transaction]) -> bool:
        """Shared read locks by *other* transactions block a take."""
        own = txn.txn_id if txn is not None else None
        return all(locker == own for locker in stored.read_lockers)

    # ----------------------------------------------------------------- wakeups --

    def _wake_waiters(self, stored: _Stored) -> None:
        """Wake every parked waiter whose template can match ``stored``.

        Only the wait queues along the entry class's MRO are consulted, and
        each woken waiter leaves its queue — so a burst of writes notifies
        a given waiter at most once, and non-matching waiters never wake.
        """
        waiters = self._waiters
        if not waiters:
            return
        wakeups = 0
        for cls in stored.cls.__mro__:
            queue = waiters.get(cls)
            if not queue:
                continue
            woke_here = False
            for waiter in queue:
                if waiter.woken:
                    continue
                if not waiter.items or self._confirm(stored, waiter.items):
                    waiter.woken = True
                    waiter.wake()
                    wakeups += 1
                    woke_here = True
            if woke_here:
                queue[:] = [w for w in queue if not w.woken]
        if wakeups:
            self._stat_wakeups += wakeups

    def _wake_txn_waiters(self, txn: Transaction) -> None:
        """Wake waiters blocked under ``txn`` so they observe its end."""
        for queue in self._waiters.values():
            woke_here = False
            for waiter in queue:
                if waiter.txn is txn and not waiter.woken:
                    waiter.woken = True
                    waiter.wake()
                    self._stat_wakeups += 1
                    woke_here = True
            if woke_here:
                queue[:] = [w for w in queue if not w.woken]

    def _entry_became_visible(self, stored: _Stored) -> None:
        self._wake_waiters(stored)
        if not self._registrations:
            return
        alive: list[EventRegistration] = []
        for reg in self._registrations:
            if not reg.active():
                continue
            alive.append(reg)
            if not issubclass(stored.cls, type(reg.template)):
                continue
            if not reg.items or self._confirm(stored, reg.items):
                event = RemoteEvent(self.name, reg.registration_id, reg.next_sequence())
                self._stat_events += 1
                # Deliver outside the monitor; listeners must not block, and
                # a listener's failure is its own problem, not the space's.
                self.runtime.call_later(
                    0.0, lambda r=reg, e=event: self._deliver_event(r, e)
                )
        self._registrations = alive

    def _deliver_event(self, registration: EventRegistration, event: RemoteEvent) -> None:
        try:
            registration.listener(event)
        except Exception:
            self._stat_listener_errors += 1

    # ------------------------------------------------------------------ expiry --

    def _remove(self, stored: _Stored) -> None:
        cls = stored.cls
        bucket = self._buckets.get(cls)
        if bucket is not None and bucket.pop(stored.entry_id, None) is not None:
            self._by_id.pop(stored.entry_id, None)
            self._retire(self._scan_lists[cls], bucket)
            if stored.filed:
                index = self._indexes.get(cls) or {}
                for name, sl in stored.filed.items():
                    # An emptied value bucket goes (a poisoned field's
                    # index is gone already): a field of unique values
                    # would otherwise grow one dead key per entry.
                    if self._retire(sl, bucket) and name in index:
                        del index[name][sl.key]

    def _reap_expired(self) -> None:
        """Collect expired and cancelled entries.

        O(reaped): cancelled ids arrive via lease ``on_cancel`` hooks, and
        finite-lease deadlines sit in a min-heap — when every lease is
        FOREVER and nothing was cancelled this is two empty checks.
        """
        cancelled = self._lease_cancelled
        if cancelled:
            # Explicit cancellations are journaled: unlike natural expiry
            # (an absolute deadline that replays by itself), a cancel is an
            # external state change the log must carry.
            journal: list[tuple] = []
            for entry_id in cancelled:
                stored = self._by_id.get(entry_id)
                if stored is not None and stored.state != _TAKEN:
                    self._stat_expired += 1
                    self._remove(stored)
                    if self.journaling and stored.state != _PENDING_WRITE:
                        journal.append(("take", entry_id))
            cancelled.clear()
            if journal:
                self._journal_ops(journal)
        heap = self._lease_heap
        if not heap:
            return
        now = self.runtime.now()
        while heap and heap[0][0] <= now:
            _, entry_id = heappop(heap)
            stored = self._by_id.get(entry_id)
            if stored is None:
                continue  # already taken/cancelled/removed
            lease = stored.lease
            if not lease.is_expired():
                # Renewed since it was queued; re-arm at the new deadline.
                if lease.expiration_ms != FOREVER:
                    heappush(heap, (lease.expiration_ms, entry_id))
                continue
            if stored.state != _TAKEN:
                self._stat_expired += 1
                self._remove(stored)
            # _TAKEN: the owning transaction settles its fate; an expired
            # restore is reaped in _complete_transaction.

    # ------------------------------------------------------------------- misc --

    def count(self, template: Entry, txn: Optional[Transaction] = None) -> int:
        """Number of visible entries matching ``template`` (diagnostic)."""
        with self._lock:
            self._reap_expired()
            return len(self._matching(type(template), match_items(template),
                                      txn, take=False))
