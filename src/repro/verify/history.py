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
    The connection died around the critical RPC, or the server failed
    the call (in a batch, after a prefix may have run).  Non-idempotent
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
from typing import Any, Optional, Sequence

from repro.errors import AdmissionError, FencedError, NetworkError, SpaceError
from repro.runtime.base import Runtime
from repro.tuplespace.entry import Entry
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.ops import (
    Call,
    TransactionHandle,
    apply,
    batch_recorder,
    space_client,
)

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
               status: str) -> Op:
        """Record one finalized (or pending) operation on ``entry``."""
        record = Op(
            op=op,
            entry_class=type(entry).__name__,
            key=entry_key(entry),
            client=client,
            invoked_ms=invoked_ms,
            status=status,
            responded_ms=None if status == PENDING else self.now(),
        )
        self.ops.append(record)
        return record

    def record_unkeyed(self, op: str, template: Any, client: str,
                       invoked_ms: float, status: str,
                       count: Optional[int]) -> Op:
        """Record an operation whose affected entries are unknown."""
        record = self.record(op, template, client, invoked_ms, status)
        record.key = None
        record.count = count
        return record


class RecordingTransaction(TransactionHandle):
    """Transaction handle that defers status resolution.

    ``completed`` is a property *with a setter* because
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
    def opened(self) -> bool:
        return self._inner.opened

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

    def _resolve(self, status: str) -> None:
        """Stamp every buffered operation with the transaction's fate.

        First resolution wins: a commit that died with a connection
        error resolves ``indeterminate``, and the cleanup abort that
        follows must not downgrade that to ``aborted``.
        """
        if self._resolved:
            return
        self._resolved = True
        when = self._history.now()
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


@dataclass(slots=True, eq=False)
class _Step:
    """One recorded call on its way: when it was invoked, where its
    value will be in a batch's answer, and (writes) its history records."""

    call: Call
    invoked_ms: float
    index: Optional[int] = None
    records: Sequence[Op] = ()


def _unwrapped(call: Call) -> Call:
    """``call`` as the wrapped client understands it."""
    if isinstance(call.txn, RecordingTransaction):
        return call._replace(txn=call.txn._inner)
    return call


def _entries(call: Call) -> list[Entry]:
    return call.subject if call.op == "write_all" else [call.subject]


#: Unkeyed slack a lost take leaves: one entry, or an unknown number.
_LOST_TAKE = {"take": 1, "take_multiple": None}


def _failure(exc: Exception) -> Optional[str]:
    """What a failed call says about its effect (``None``: nothing)."""
    if isinstance(exc, (FencedError, AdmissionError)):
        # Both are pre-execution rejections; for a batch the server
        # admission-checks every sub-op before running any, so the whole
        # pipeline definitely did not execute.
        return REJECTED
    if isinstance(exc, (NetworkError, SpaceError)):
        # The reply was lost, or the server failed the call — for a
        # batch, after a prefix of it may have run.
        return INDETERMINATE
    return None


@space_client
class RecordingSpace:
    """History-recording wrapper around a space client.

    The space operations (``write``, ``take``, ``count``, ...) are
    recorded; everything else (``exists``, ``ping``, ``close``, ``fail``,
    health counters, ...) passes through via ``__getattr__`` — including
    ``batch``, which is wrapped on access so that
    ``getattr(space, "batch", None)`` duck-typing still reports ``None``
    for clients without one.

    A lone call and a batch's calls are recorded alike: :meth:`_open`
    before the call is made, then :meth:`_settle` each with its value or
    with what its failure says.
    """

    def __init__(self, space: Any, history: HistoryRecorder,
                 client: str = "client") -> None:
        self._space = space
        self._history = history
        self._client = client

    # -- handles -------------------------------------------------------------

    def transaction(self, timeout_ms: float = FOREVER) -> RecordingTransaction:
        return RecordingTransaction(self._space.transaction(timeout_ms),
                                    self._history, self._client)

    def __getattr__(self, name: str) -> Any:
        if name == "batch":
            factory = getattr(self._space, "batch")  # may raise AttributeError
            return lambda: RecordingBatch(factory(), self)
        return getattr(self._space, name)

    # -- open / settle ---------------------------------------------------------

    def _invoke(self, call: Call) -> Any:
        step = self._open(_Step(call, self._history.now()))
        try:
            value = apply(self._space, _unwrapped(call))
        except Exception as exc:
            self._fail([step], exc)
            raise
        self._settle(step, COMMITTED, value)
        return value

    def _open(self, step: _Step) -> _Step:
        """Enter a write into the history ``pending``, before the call
        that may make it visible to other clients is issued."""
        if step.call.op in ("write", "write_all"):
            step.records = [
                self._history.record("write", entry, self._client,
                                     step.invoked_ms, PENDING)
                for entry in _entries(step.call)]
        return step

    def _fail(self, steps: list[_Step], exc: Exception) -> None:
        """Settle calls that failed with ``exc`` — as their failure says
        (:func:`_failure`), except entries a partially rejected scatter
        did land: those ride ``exc`` and are committed."""
        status = _failure(exc)
        if status is not None:
            landed = {id(e) for e in getattr(exc, "admitted_entries", ())}
            for step in steps:
                self._settle(step, status, landed=landed)

    def _settle(self, step: _Step, status: str, value: Any = None,
                landed: frozenset = frozenset()) -> None:
        """Record one call's outcome: ``committed`` when acknowledged
        (with its ``value``), else ``rejected`` or ``indeterminate``.

        Acknowledged writes and takes under a recording transaction are
        buffered on it until its fate is known.  A failed write is still
        attributable; a failed take yielded no entry we can name, so an
        indeterminate one records unkeyed per-class slack.  A commit or
        abort decides its transaction.
        """
        call = step.call
        op, txn = call.op, call.txn
        recording = isinstance(txn, RecordingTransaction)
        buffered = recording and status == COMMITTED
        if step.records:
            for record, entry in zip(step.records, _entries(call)):
                if buffered:
                    txn._buffer(record)
                else:
                    record.status = (COMMITTED if id(entry) in landed
                                     else status)
                    record.responded_ms = self._history.now()
        elif op in _LOST_TAKE and status == COMMITTED:
            taken = (value if op == "take_multiple"
                     else [] if value is None else [value])
            for entry in taken:
                record = self._history.record(
                    "take", entry, self._client, step.invoked_ms,
                    PENDING if buffered else COMMITTED)
                if buffered:
                    txn._buffer(record)
        elif op in _LOST_TAKE and status == INDETERMINATE:
            self._history.record_unkeyed(
                "take", call.subject, self._client, step.invoked_ms,
                INDETERMINATE, count=_LOST_TAKE[op])
        elif op == "read" and value is not None:
            self._history.record("read", value, self._client,
                                 step.invoked_ms, COMMITTED)
        elif recording and op in ("txn_commit", "txn_abort"):
            txn._resolve(status if op == "txn_commit" else ABORTED)


@batch_recorder
class RecordingBatch:
    """History-recording wrapper around a pipelined batch.

    Mirrors :class:`~repro.tuplespace.proxy.ProxyBatch` /
    :class:`~repro.tuplespace.sharding.ShardedBatch`: each call is passed
    to the wrapped batch as it is recorded and resolved when
    :meth:`flush` learns its fate.  A ``commit``/``abort`` inside the
    batch resolves its transaction's buffered history at the right point
    in the call sequence, so the worker's steady-state ``write_all +
    commit + txn_create + take_multiple`` cycle records exactly like its
    unbatched equivalent.
    """

    def __init__(self, inner: Any, space: RecordingSpace) -> None:
        self._inner = inner
        self._space = space
        self._steps: list[_Step] = []

    def __len__(self) -> int:
        return len(self._inner)

    def _record(self, call: Call) -> Optional[int]:
        # txn_create already reached the wrapped batch (_transaction).
        index = (None if call.op == "txn_create"
                 else apply(self._inner, _unwrapped(call)))
        self._steps.append(_Step(call, self._space._history.now(), index))
        return index

    def _transaction(self, timeout_ms: float) -> RecordingTransaction:
        space = self._space
        return RecordingTransaction(self._inner.txn_create(timeout_ms),
                                    space._history, space._client)

    def flush(self) -> list[Any]:
        steps, self._steps = self._steps, []
        space = self._space
        # Pending from here on: the flush may block in a later sub-op
        # long after these writes became visible.
        for step in steps:
            space._open(step)
        try:
            values = self._inner.flush()
        except Exception as exc:
            space._fail(steps, exc)
            raise
        # In call order, so a commit resolves the writes buffered before it.
        for step in steps:
            space._settle(step, COMMITTED, None if step.index is None
                          else values[step.index])
        return values
