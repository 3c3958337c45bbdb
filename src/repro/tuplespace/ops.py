"""The space's operations, each declared once.

:data:`OPS` holds one :class:`Op` row per request a
:class:`~repro.tuplespace.proxy.SpaceServer` answers.  A row says how a
client call becomes the request's arguments, what the reply carries, how
the operation behaves on the wire (may it be re-sent, may it wait, is it
fenced, may it ride a batch, is it admission-checked, does it run under a
transaction) and where a sharded router sends it.  Everything that used
to restate those facts per operation reads them here: the server's
dispatch and park rule, the proxy's retry rule and reply deadline, the
batch recorders and the sharded batch's routing.

Adding an operation takes a row here, a
:class:`~repro.tuplespace.space.JavaSpace` method and, when the server
does not know the operation yet, a ``SpaceServer._op_<name>`` handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional

from repro.errors import SpaceError
from repro.tuplespace.entry import Entry
from repro.tuplespace.lease import FOREVER
from repro.util.codec import encode_entry

__all__ = ["Call", "Op", "OPS", "TransactionHandle", "apply",
           "batch_recorder", "space_client"]


class Call(NamedTuple):
    """One space operation as a client made it: a frozen record (a named
    tuple, which builds faster than a frozen dataclass; copy one with
    ``_replace``).

    ``subject`` is the entry (``write``), the entries (``write_all``),
    the sub-requests (``batch``) or the template.  ``txn`` is the
    transaction the operation runs under; for ``txn_create`` it is the
    handle the call opens, for ``txn_commit``/``txn_abort`` the one it
    completes.
    """

    op: str
    subject: Any = None
    txn: Any = None
    lease_ms: float = FOREVER
    timeout_ms: Optional[float] = None
    max_entries: int = 1
    requeue: bool = False


@dataclass(frozen=True, slots=True)
class Op:
    """One row of the operation table."""

    name: str
    #: Where a sharded router sends the call: to the shard of its
    #: ``"entry"``, of its ``"entries"`` (one shard, or scattered), of its
    #: ``"template"`` (a wildcard scatters) or of its ``"txn"``; or
    #: ``"local"``: no shard of its own.
    route: str
    #: :class:`Call` → request args.  The keys and their order are part of
    #: the wire bytes.  ``None``: built by hand (``notify``) or sent only
    #: by the server's peers (``fence``, ``replicate``).
    args: Optional[Callable[[Call], dict[str, Any]]] = None
    #: What the reply value carries: one entry frame or none
    #: (``"first"``), a ``"bool"``, a ``"list"`` of frames,
    #: ``{"count": n}`` (``"count"``), or a plain value (``None``).  A
    #: parked request's answer is shaped from the frames it finds by it.
    reply: Optional[str] = None
    #: Safe to re-send blindly after a reconnect: it does not mutate the
    #: space, or (``txn_create``, ``notify``) what it creates died with the
    #: dropped connection.  A retried take or write could consume or
    #: duplicate an entry whose first attempt landed.
    idempotent: bool = False
    #: Its ``timeout_ms`` is a server-side wait budget: the client's reply
    #: deadline covers it on top of the RPC budget, and the server parks
    #: the request instead of answering while it waits.
    blocking: bool = False
    #: Passes epoch/lease fencing: probes must reach a fenced server, the
    #: replication feed is how a fenced server re-syncs, and ``fence`` is
    #: the demotion order itself.
    fence_exempt: bool = False
    #: May ride inside a ``batch`` request.  Not: ``replicate`` (hijacks
    #: the connection), ``notify`` (needs its own channel), ``batch``.
    batchable: bool = True
    #: Judged by admission control before it runs.
    admitted: bool = False
    #: Carries a ``txn_id`` the server resolves to one of the connection's
    #: transactions.
    txn_aware: bool = False
    #: The client-surface method that makes the call, and the
    #: :class:`Call` fields it takes, in order (see :func:`apply`).
    method: Optional[str] = None
    params: tuple[str, ...] = ()


def _txn_id(call: Call) -> Any:
    return call.txn.txn_id if call.txn else None


def _frame(entry: Entry) -> bytes:
    # Entries are encoded once, here; the space stores the frame verbatim
    # and ships it back for one decode on the client.
    if not isinstance(entry, Entry):
        raise SpaceError(f"not an Entry: {type(entry).__name__}")
    return encode_entry(entry)


def _requeued(args: dict[str, Any], call: Call) -> dict[str, Any]:
    if call.requeue:
        # A worker re-queuing tasks it already holds: exempt from
        # admission control (shedding it would break exactly-once).
        args["requeue"] = True
    return args


# Templates travel as live objects: the server matches on their fields.
# ``raw`` is no longer read by the server (replies are always frames); it
# stays on the wire so request bytes are unchanged.

def _write_args(c: Call) -> dict[str, Any]:
    return _requeued({"entry_data": _frame(c.subject), "lease_ms": c.lease_ms,
                      "txn_id": _txn_id(c)}, c)


def _write_all_args(c: Call) -> dict[str, Any]:
    return _requeued({"entries_data": [_frame(e) for e in c.subject],
                      "lease_ms": c.lease_ms, "txn_id": _txn_id(c)}, c)


def _match_args(c: Call) -> dict[str, Any]:
    return {"template": c.subject, "timeout_ms": c.timeout_ms,
            "txn_id": _txn_id(c), "raw": True}


def _take_multiple_args(c: Call) -> dict[str, Any]:
    return {"template": c.subject, "max_entries": c.max_entries,
            "timeout_ms": c.timeout_ms, "txn_id": _txn_id(c), "raw": True}


def _snapshot_args(c: Call) -> dict[str, Any]:
    return {"template": c.subject, "txn_id": _txn_id(c)}


def _completion_args(c: Call) -> dict[str, Any]:
    return {"id": c.txn.txn_id}


_WRITE = ("subject", "txn", "lease_ms", "requeue")
_MATCH = ("subject", "txn", "timeout_ms")

#: op name → row.
OPS: dict[str, Op] = {op.name: op for op in (
    Op("write", "entry", _write_args, admitted=True, txn_aware=True,
       method="write", params=_WRITE),
    Op("write_all", "entries", _write_all_args, reply="count",
       admitted=True, txn_aware=True, method="write_all", params=_WRITE),
    Op("read", "template", _match_args, reply="first", idempotent=True,
       blocking=True, txn_aware=True, method="read", params=_MATCH),
    Op("take", "template", _match_args, reply="first", blocking=True,
       txn_aware=True, method="take", params=_MATCH),
    Op("take_multiple", "template", _take_multiple_args, reply="list",
       blocking=True, txn_aware=True, method="take_multiple",
       params=("subject", "max_entries", "txn", "timeout_ms")),
    Op("count", "template", _snapshot_args, idempotent=True, txn_aware=True,
       method="count", params=("subject", "txn")),
    Op("exists", "template",
       lambda c: {"template": c.subject, "timeout_ms": c.timeout_ms,
                  "txn_id": _txn_id(c)},
       reply="bool", idempotent=True, blocking=True, txn_aware=True),
    Op("contents", "template", _snapshot_args, idempotent=True,
       txn_aware=True, method="contents", params=("subject", "txn")),
    Op("txn_create", "local", lambda c: {"timeout_ms": c.timeout_ms},
       idempotent=True, method="txn_create", params=("timeout_ms",)),
    Op("txn_commit", "txn", _completion_args, method="commit",
       params=("txn",)),
    Op("txn_abort", "txn", _completion_args, method="abort",
       params=("txn",)),
    Op("notify", "local", idempotent=True, batchable=False),
    Op("ping", "local", lambda c: {}, idempotent=True, fence_exempt=True),
    Op("fence", "local", fence_exempt=True),
    Op("replicate", "local", fence_exempt=True, batchable=False),
    Op("batch", "local", lambda c: {"ops": c.subject}, batchable=False),
)}


def _fields(names: tuple[str, ...]) -> Callable[[Call], tuple]:
    get = attrgetter(*names)
    # attrgetter answers one name with the bare value, several with a tuple.
    return get if len(names) > 1 else lambda call: (get(call),)


#: op name → the :class:`Call` fields its client method takes.
_ARGS = {name: _fields(row.params) for name, row in OPS.items() if row.params}


def apply(target: Any, call: Call) -> Any:
    """Make ``call`` through ``target``'s own method for it.

    ``target`` is anything with the JavaSpace client surface — a space, a
    client stub, a batch.  ``txn_create``/``txn_commit``/``txn_abort``
    are batch methods; a client opens and completes transactions through
    their handles instead.
    """
    return getattr(target, OPS[call.op].method)(*_ARGS[call.op](call))


class TransactionHandle:
    """What every client's transaction handle shares: ``txn_id``,
    ``completed``, ``opened``, ``commit()``/``abort()``, and a context
    manager that commits on a clean exit and aborts on an exception —
    unless the body already completed it."""

    completed: bool
    #: Whether the server-side transaction exists yet (not while its
    #: batch is unflushed or its shard unbound: nothing to abort).
    opened: bool

    def __enter__(self) -> Any:
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if self.completed:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class _Client:
    """The space operations of a client, written once for every client
    (:func:`space_client`).  Each makes a :class:`Call` through the
    client's ``_invoke``."""

    def write(self, entry: Entry, txn: Any = None,
              lease_ms: float = FOREVER, requeue: bool = False) -> Any:
        return self._invoke(Call("write", entry, txn, lease_ms=lease_ms,
                                 requeue=requeue))

    def write_all(self, entries: list[Entry], txn: Any = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        return self._invoke(Call("write_all", entries, txn,
                                 lease_ms=lease_ms, requeue=requeue))

    def read(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        return self._invoke(Call("read", template, txn,
                                 timeout_ms=timeout_ms))

    def take(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = None) -> Optional[Entry]:
        return self._invoke(Call("take", template, txn,
                                 timeout_ms=timeout_ms))

    def read_if_exists(self, template: Entry,
                       txn: Any = None) -> Optional[Entry]:
        return self.read(template, txn, timeout_ms=0.0)

    def take_if_exists(self, template: Entry,
                       txn: Any = None) -> Optional[Entry]:
        return self.take(template, txn, timeout_ms=0.0)

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Any = None,
                      timeout_ms: Optional[float] = None) -> list[Entry]:
        return self._invoke(Call("take_multiple", template, txn,
                                 timeout_ms=timeout_ms,
                                 max_entries=max_entries))

    def count(self, template: Entry, txn: Any = None) -> int:
        return self._invoke(Call("count", template, txn))

    def contents(self, template: Entry, txn: Any = None) -> list[Entry]:
        return self._invoke(Call("contents", template, txn))


class _Recorder:
    """The batchable operations, written once for every batch class
    (:func:`batch_recorder`).  Each records a :class:`Call` through the
    batch's ``_record`` and returns what that returns — the operation's
    index in the batch.  ``txn_create`` returns the handle the batch's
    ``_transaction`` makes: later operations of the same batch may run
    under it."""

    def write(self, entry: Entry, txn: Any = None,
              lease_ms: float = FOREVER, requeue: bool = False) -> int:
        return self._record(Call("write", entry, txn, lease_ms=lease_ms,
                                 requeue=requeue))

    def write_all(self, entries: list[Entry], txn: Any = None,
                  lease_ms: float = FOREVER, requeue: bool = False) -> int:
        return self._record(Call("write_all", list(entries), txn,
                                 lease_ms=lease_ms, requeue=requeue))

    def read(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        return self._record(Call("read", template, txn,
                                 timeout_ms=timeout_ms))

    def take(self, template: Entry, txn: Any = None,
             timeout_ms: Optional[float] = 0.0) -> int:
        return self._record(Call("take", template, txn,
                                 timeout_ms=timeout_ms))

    def take_multiple(self, template: Entry, max_entries: int,
                      txn: Any = None,
                      timeout_ms: Optional[float] = 0.0) -> int:
        return self._record(Call("take_multiple", template, txn,
                                 timeout_ms=timeout_ms,
                                 max_entries=max_entries))

    def count(self, template: Entry, txn: Any = None) -> int:
        return self._record(Call("count", template, txn))

    def txn_create(self, timeout_ms: float = FOREVER) -> Any:
        txn = self._transaction(timeout_ms)
        self._record(Call("txn_create", txn=txn, timeout_ms=timeout_ms))
        return txn

    def commit(self, txn: Any) -> int:
        return self._record(Call("txn_commit", txn=txn))

    def abort(self, txn: Any) -> int:
        return self._record(Call("txn_abort", txn=txn))


def _bind(surface: type, cls: type) -> type:
    # Bound on the class itself rather than inherited, so its own
    # namespace holds its whole operation set (tools that look operations
    # up per class, such as the benchmark suite's tracer, find them there).
    for name, method in vars(surface).items():
        if not name.startswith("_"):
            setattr(cls, name, method)
    return cls


def space_client(cls: type) -> type:
    """Class decorator: give a client the space operations; it supplies
    ``_invoke(call)``."""
    return _bind(_Client, cls)


def batch_recorder(cls: type) -> type:
    """Class decorator: give a batch the batchable operations; it supplies
    ``_record(call)`` and ``_transaction(timeout_ms)``."""
    return _bind(_Recorder, cls)
