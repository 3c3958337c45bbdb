"""Transparent operation-history recording for consistency checking.

:class:`RecordingSpace` wraps any object with the JavaSpace client API —
a :class:`~repro.tuplespace.proxy.SpaceProxy`, a
:class:`~repro.tuplespace.sharding.ShardRouter`, or an in-process
:class:`~repro.tuplespace.space.JavaSpace` — and records every
``write``/``take``/``read`` as an :class:`Op` with invocation and
response times and a *resolution status*:

``committed``
    The operation definitely took effect (acknowledged, and any
    enclosing transaction committed).
``indeterminate``
    The connection died around the critical RPC.  Non-idempotent
    operations are never blind-retried by the proxy (see
    :class:`~repro.tuplespace.proxy.RecoveryPolicy`), so the operation
    executed *at most once* — it may or may not have taken effect.
``rejected``
    Definitely did not take effect: every attempt died with
    :class:`~repro.errors.FencedError` or
    :class:`~repro.errors.AdmissionError`, both of which the server
    raises *before* executing anything (for a batch, before executing
    *any* sub-op).
``aborted``
    Definitely rolled back: the enclosing transaction aborted (or
    expired server-side), so takes were undone and writes never became
    visible.

Operations issued under a transaction are buffered on the
:class:`RecordingTransaction` and resolved all at once when its fate is
known; operations inside a pipelined batch are buffered on the
:class:`RecordingBatch` and resolved at ``flush``.  Writes enter the
history ``pending`` at *invocation* (for a batch: when ``flush`` starts)
and are stamped at response: a write can be observed before its call
returns — a batch whose commit landed while a later sub-op still blocks
server-side — and a history closed in that window must still show where
the observed entry came from (``pending`` counts as ``indeterminate``).
The checker
(:mod:`repro.verify.checker`) treats ``indeterminate`` as slack in both
directions — it can never manufacture a violation, only excuse one — so
recording errs toward ``indeterminate`` whenever the outcome is unknown.

An operation that fails without yielding an entry (a take whose reply
was lost) cannot be attributed to a key; it is recorded *unkeyed* with
the template's class so the checker can grant per-class slack
(``count=None`` means "an unknown number of entries", which disables the
lost-write check for that class — sound, just weaker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import AdmissionError, FencedError, NetworkError, SpaceError
from repro.runtime.base import Runtime
from repro.tuplespace.entry import Entry
from repro.tuplespace.lease import FOREVER

__all__ = ["Op", "HistoryRecorder", "RecordingSpace",
           "RecordingTransaction", "RecordingBatch", "entry_key"]

#: Statuses the checker counts as "took effect" / "may have taken effect".
COMMITTED = "committed"
INDETERMINATE = "indeterminate"
REJECTED = "rejected"
ABORTED = "aborted"
PENDING = "pending"


def entry_key(entry: Any) -> Optional[tuple[str, Any]]:
    """Identity of an entry for conservation checks.

    ``(class name, shard_key)`` — the same identity the shard ring
    routes on.  Entries without a routable key (``shard_key() is None``)
    return ``None`` and are exempt from per-key conservation.
    """
    if not isinstance(entry, Entry):
        return None
    key = entry.shard_key()
    if key is None:
        return None
    return (type(entry).__name__, key)


@dataclass
class Op:
    """One recorded space operation (or one entry of a bulk operation)."""

    op: str                      # "write" | "take" | "read"
    entry_class: str
    key: Optional[tuple[str, Any]]
    client: str
    invoked_ms: float
    responded_ms: Optional[float] = None
    status: str = PENDING
    #: How many entries this record may account for: 1 for keyed records
    #: and unkeyed single takes, ``None`` for an unkeyed take_multiple
    #: whose reply was lost (unknown count).
    count: Optional[int] = 1


class HistoryRecorder:
    """Append-only log of every recorded :class:`Op` in one run."""

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self.ops: list[Op] = []

    def __len__(self) -> int:
        return len(self.ops)

    def now(self) -> float:
        return self.runtime.now()

    def record(self, op: str, entry: Any, client: str, invoked_ms: float,
               status: str, responded_ms: Optional[float] = None) -> Op:
        """Record one finalized (or pending) operation on ``entry``."""
        record = Op(
            op=op,
            entry_class=type(entry).__name__,
            key=entry_key(entry),
            client=client,
            invoked_ms=invoked_ms,
            status=status,
            responded_ms=(responded_ms if responded_ms is not None
                          else (None if status == PENDING else self.now())),
        )
        self.ops.append(record)
        return record

    def record_unkeyed(self, op: str, template: Any, client: str,
                       invoked_ms: float, status: str,
                       count: Optional[int]) -> Op:
        """Record an operation whose affected entries are unknown."""
        record = Op(
            op=op,
            entry_class=type(template).__name__,
            key=None,
            client=client,
            invoked_ms=invoked_ms,
            status=status,
            responded_ms=self.now(),
            count=count,
        )
        self.ops.append(record)
        return record


def _unwrap(txn: Any) -> Any:
    """The transaction handle the underlying client understands."""
    if isinstance(txn, RecordingTransaction):
        return txn._inner
    return txn


class RecordingTransaction:
    """Duck-typed transaction handle that defers status resolution.

    Mirrors the :class:`~repro.tuplespace.proxy.RemoteTransaction`
    surface (``txn_id``/``completed``/``commit``/``abort``/context
    manager).  ``completed`` is a property *with a setter* because
    worker error paths assign it directly after a failed abort — that
    assignment resolves any still-pending operations as ``aborted``
    (the commit was never acknowledged, so nothing took effect).
    """

    def __init__(self, inner: Any, history: HistoryRecorder,
                 client: str) -> None:
        self._inner = inner
        self._history = history
        self._client = client
        self._pending: list[Op] = []
        self._resolved = False

    @property
    def txn_id(self) -> Any:
        return self._inner.txn_id

    @property
    def completed(self) -> bool:
        return self._inner.completed

    @completed.setter
    def completed(self, value: bool) -> None:
        self._inner.completed = value
        if value:
            self._resolve(ABORTED)

    def _buffer(self, record: Op) -> None:
        self._pending.append(record)

    def _resolve(self, status: str,
                 responded_ms: Optional[float] = None) -> None:
        """Stamp every buffered operation with the transaction's fate.

        First resolution wins: a commit that died with a connection
        error resolves ``indeterminate``, and the cleanup abort that
        follows must not downgrade that to ``aborted``.
        """
        if self._resolved:
            return
        self._resolved = True
        when = responded_ms if responded_ms is not None else self._history.now()
        for record in self._pending:
            record.status = status
            record.responded_ms = when
        self._pending = []

    def commit(self) -> None:
        try:
            self._inner.commit()
        except FencedError:
            self._resolve(REJECTED)
            raise
        except NetworkError:
            self._resolve(INDETERMINATE)
            raise
        except SpaceError:
            # Expired or already aborted server-side: nothing committed.
            self._resolve(ABORTED)
            raise
        self._resolve(COMMITTED)

    def abort(self) -> None:
        try:
            self._inner.abort()
        finally:
            # Even if the abort RPC itself failed, the commit was never
            # issued — the server aborts the transaction on lease expiry.
            self._resolve(ABORTED)

    def __enter__(self) -> "RecordingTransaction":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if self.completed:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class RecordingSpace:
    """History-recording wrapper around a space client.

    Everything not intercepted here (``count``, ``contents``,
    ``exists``, ``ping``, ``close``, ``fail``, health counters, ...)
    passes through via ``__getattr__`` — including ``batch``, which is
    wrapped on access so that ``getattr(space, "batch", None)``
    duck-typing still reports ``None`` for clients without one.
    """

    def __init__(self, space: Any, history: HistoryRecorder,
                 client: str = "client") -> None:
        self._space = space
        self._history = history
        self._client = client

    # -- mutating operations -------------------------------------------------

    def write(self, entry: Entry, txn: Any = None,
              lease_ms: float = FOREVER, requeue: bool = False) -> Any:
        records = self._open_writes([entry], self._history.now())
        try:
            result = self._space.write(entry, txn=_unwrap(txn),
                                       lease_ms=lease_ms, requeue=requeue)
        except (FencedError, AdmissionError):
            self._stamp(records, REJECTED)
            raise
        except NetworkError:
            self._stamp(records, INDETERMINATE)
            raise
        self._close_writes(records, txn)
        return result

    def write_all(self, entries: list[Entry], txn: Any = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        records = self._open_writes(entries, self._history.now())
        try:
            result = self._space.write_all(entries, txn=_unwrap(txn),
                                           lease_ms=lease_ms, requeue=requeue)
        except (FencedError, AdmissionError) as exc:
            # A sharded scatter can admit some groups before another
            # shard rejects; those entries *are* in the space and the
            # router names them on the exception.  Everything else was
            # definitely refused pre-dispatch.
            self._stamp_unadmitted(records, entries, exc)
            raise
        except NetworkError:
            self._stamp(records, INDETERMINATE)
            raise
        self._close_writes(records, txn)
        return result

    def take(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        invoked = self._history.now()
        try:
            entry = self._space.take(template, txn=_unwrap(txn),
                                     timeout_ms=timeout_ms)
        except FencedError:
            raise  # rejected pre-execution: nothing was consumed
        except NetworkError:
            # The reply was lost: an entry may have been consumed, and
            # we cannot know which.  Unkeyed slack for the checker.
            self._history.record_unkeyed("take", template, self._client,
                                         invoked, INDETERMINATE, count=1)
            raise
        if entry is not None:
            self._settle_takes([entry], txn, invoked)
        return entry

    def take_if_exists(self, template: Entry,
                       txn: Any = None) -> Optional[Entry]:
        return self.take(template, txn=txn, timeout_ms=0.0)

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Any = None,
                      timeout_ms: Optional[float] = None) -> list[Entry]:
        invoked = self._history.now()
        try:
            entries = self._space.take_multiple(
                template, max_entries, txn=_unwrap(txn),
                timeout_ms=timeout_ms)
        except FencedError:
            raise
        except NetworkError:
            self._history.record_unkeyed("take", template, self._client,
                                         invoked, INDETERMINATE, count=None)
            raise
        if entries:
            self._settle_takes(entries, txn, invoked)
        return entries

    # -- non-mutating operations ---------------------------------------------

    def read(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        invoked = self._history.now()
        entry = self._space.read(template, txn=_unwrap(txn),
                                 timeout_ms=timeout_ms)
        if entry is not None:
            # Reads never change state: record committed immediately.
            self._history.record("read", entry, self._client, invoked,
                                 COMMITTED)
        return entry

    def read_if_exists(self, template: Entry,
                       txn: Any = None) -> Optional[Entry]:
        return self.read(template, txn=txn, timeout_ms=0.0)

    # -- handles -------------------------------------------------------------

    def transaction(self, timeout_ms: float = FOREVER) -> RecordingTransaction:
        return RecordingTransaction(self._space.transaction(timeout_ms),
                                    self._history, self._client)

    def __getattr__(self, name: str) -> Any:
        if name == "batch":
            factory = getattr(self._space, "batch")  # may raise AttributeError
            return lambda: RecordingBatch(factory(), self)
        return getattr(self._space, name)

    # -- internals -----------------------------------------------------------

    def _open_writes(self, entries: list[Entry],
                     invoked_ms: float) -> list[Op]:
        """Enter writes into the history ``pending``, before the call that
        may make them visible to other clients is issued."""
        return [self._history.record("write", entry, self._client,
                                     invoked_ms, PENDING)
                for entry in entries]

    def _stamp(self, records: list[Op], status: str) -> None:
        now = self._history.now()
        for record in records:
            record.status = status
            record.responded_ms = now

    def _stamp_unadmitted(self, records: list[Op], entries: list[Entry],
                        exc: Optional[Exception],
                        status: str = REJECTED) -> None:
        """Stamp ``status`` — except on entries a partially rejected
        scatter names as admitted, which did land."""
        admitted = {id(e) for e in getattr(exc, "admitted_entries", ())}
        for record, entry in zip(records, entries):
            self._stamp([record],
                        COMMITTED if id(entry) in admitted else status)

    def _close_writes(self, records: list[Op], txn: Any) -> None:
        """Acknowledged writes: their transaction's fate decides, or
        (untransacted) they are committed now."""
        if isinstance(txn, RecordingTransaction):
            for record in records:
                txn._buffer(record)
        else:
            self._stamp(records, COMMITTED)

    def _settle_takes(self, entries: list[Entry], txn: Any,
                      invoked_ms: float) -> None:
        """Record successful takes: buffered if transactional."""
        if isinstance(txn, RecordingTransaction):
            for entry in entries:
                txn._buffer(self._history.record(
                    "take", entry, self._client, invoked_ms, PENDING))
        else:
            for entry in entries:
                self._history.record("take", entry, self._client,
                                     invoked_ms, COMMITTED)


class RecordingBatch:
    """History-recording wrapper around a pipelined batch.

    Mirrors :class:`~repro.tuplespace.proxy.ProxyBatch` /
    :class:`~repro.tuplespace.sharding.ShardedBatch`: operations are
    described locally and resolved when :meth:`flush` learns their fate.
    A ``commit``/``abort`` op inside the batch resolves its transaction's
    buffered history at the right point in the op sequence, so the
    worker's steady-state ``write_all + commit + txn_create +
    take_multiple`` cycle records exactly like its unbatched equivalent.
    """

    def __init__(self, inner: Any, space: RecordingSpace) -> None:
        self._inner = inner
        self._space = space
        self._descriptors: list[dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._inner)

    def _describe(self, **descriptor: Any) -> None:
        descriptor["invoked_ms"] = self._space._history.now()
        self._descriptors.append(descriptor)

    # -- the batchable operation set ----------------------------------------

    def write(self, entry: Entry, txn: Any = None,
              lease_ms: float = FOREVER, requeue: bool = False) -> int:
        index = self._inner.write(entry, txn=_unwrap(txn), lease_ms=lease_ms,
                                  requeue=requeue)
        self._describe(kind="write", index=index, entries=[entry], txn=txn)
        return index

    def write_all(self, entries: list[Entry], txn: Any = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        index = self._inner.write_all(entries, txn=_unwrap(txn),
                                      lease_ms=lease_ms, requeue=requeue)
        self._describe(kind="write", index=index, entries=list(entries),
                       txn=txn)
        return index

    def read(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        index = self._inner.read(template, txn=_unwrap(txn),
                                 timeout_ms=timeout_ms)
        self._describe(kind="read", index=index, template=template, txn=txn)
        return index

    def take(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        index = self._inner.take(template, txn=_unwrap(txn),
                                 timeout_ms=timeout_ms)
        self._describe(kind="take", index=index, template=template, txn=txn,
                       multiple=False)
        return index

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Any = None,
                      timeout_ms: Optional[float] = 0.0) -> int:
        index = self._inner.take_multiple(template, max_entries,
                                          txn=_unwrap(txn),
                                          timeout_ms=timeout_ms)
        self._describe(kind="take", index=index, template=template, txn=txn,
                       multiple=True)
        return index

    def count(self, template: Entry) -> int:
        return self._inner.count(template)

    def txn_create(self, timeout_ms: float = FOREVER) -> RecordingTransaction:
        inner_txn = self._inner.txn_create(timeout_ms)
        txn = RecordingTransaction(inner_txn, self._space._history,
                                   self._space._client)
        self._describe(kind="txn_create", txn=txn)
        return txn

    def commit(self, txn: Any) -> int:
        index = self._inner.commit(_unwrap(txn))
        self._describe(kind="commit", index=index, txn=txn)
        return index

    def abort(self, txn: Any) -> int:
        index = self._inner.abort(_unwrap(txn))
        self._describe(kind="abort", index=index, txn=txn)
        return index

    # -- execution -----------------------------------------------------------

    def flush(self) -> list[Any]:
        descriptors, self._descriptors = self._descriptors, []
        space = self._space
        for d in descriptors:
            if d["kind"] == "write":
                # Pending from here on: the flush may block in a later
                # sub-op long after these writes became visible.
                d["records"] = space._open_writes(d["entries"],
                                                  d["invoked_ms"])
        try:
            values = self._inner.flush()
        except (FencedError, AdmissionError) as exc:
            # Both are pre-execution rejections; for a batch the server
            # admission-checks every sub-op before running any, so the
            # whole pipeline definitely did not execute.  (A sharded
            # scatter write inside a batch may still have landed on the
            # shards that admitted it — those entries ride the error.)
            self._fail(descriptors, REJECTED, exc)
            raise
        except NetworkError:
            self._fail(descriptors, INDETERMINATE)
            raise
        except SpaceError:
            # A sub-op failed server-side: a prefix of the batch may
            # have executed; which ops it covers is not observable here.
            self._fail(descriptors, INDETERMINATE)
            raise
        self._resolve(descriptors, values)
        return values

    def _resolve(self, descriptors: list[dict[str, Any]],
                 values: list[Any]) -> None:
        """Record every op of a fully successful flush, in op order —
        so a commit resolves the writes buffered just before it."""
        space = self._space
        for d in descriptors:
            kind, txn = d["kind"], d.get("txn")
            if kind == "write":
                space._close_writes(d["records"], txn)
            elif kind == "read":
                entry = values[d["index"]]
                if entry is not None:
                    space._history.record("read", entry, space._client,
                                          d["invoked_ms"], COMMITTED)
            elif kind == "take":
                value = values[d["index"]]
                entries = (list(value) if d["multiple"]
                           else ([value] if value is not None else []))
                if entries:
                    space._settle_takes(entries, txn, d["invoked_ms"])
            elif kind == "commit" and isinstance(txn, RecordingTransaction):
                txn._resolve(COMMITTED)
            elif kind == "abort" and isinstance(txn, RecordingTransaction):
                txn._resolve(ABORTED)

    def _fail(self, descriptors: list[dict[str, Any]], status: str,
              exc: Optional[Exception] = None) -> None:
        """Record a failed flush.

        ``rejected`` flushes executed nothing; ``indeterminate`` flushes
        may have executed a prefix.  Writes are attributable either way
        (left buffered in their open transaction when one is recording,
        so a later commit — in a retried batch — resolves them
        precisely); takes yielded no entries we can name, so an
        indeterminate flush records unkeyed per-class slack.  Entries a
        partially rejected scatter did land ride ``exc`` and are stamped
        committed, not ``status``.
        """
        space = self._space
        history = space._history
        for d in descriptors:
            kind, txn = d["kind"], d.get("txn")
            if kind == "write":
                if (status == INDETERMINATE
                        and isinstance(txn, RecordingTransaction)
                        and not txn._resolved):
                    space._close_writes(d["records"], txn)
                else:
                    space._stamp_unadmitted(d["records"], d["entries"], exc,
                                          status)
            elif kind == "take" and status == INDETERMINATE:
                history.record_unkeyed(
                    "take", d["template"], space._client, d["invoked_ms"],
                    INDETERMINATE, count=None if d["multiple"] else 1)
            elif kind == "commit" and isinstance(txn, RecordingTransaction):
                txn._resolve(status)
            elif kind == "abort" and isinstance(txn, RecordingTransaction):
                txn._resolve(ABORTED)
