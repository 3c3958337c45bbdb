"""Transactions over the tuple space.

JavaSpaces transactional semantics (the paper: "In event of a partial
failure, the transaction either completes successfully or does not execute
at all"):

* a ``write`` under a transaction is invisible to other transactions until
  commit, and discarded on abort;
* a ``take`` under a transaction hides the entry from everyone; commit
  removes it permanently, abort restores it;
* a ``read`` under a transaction places a shared lock: others may read but
  not take until the transaction completes;
* a transaction is leased — if its lease expires before commit, the
  manager aborts it automatically.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import TransactionAbortedError, TransactionError
from repro.runtime.base import Runtime
from repro.tuplespace.lease import FOREVER, Lease

if TYPE_CHECKING:  # pragma: no cover
    from repro.tuplespace.space import JavaSpace

__all__ = ["Transaction", "TransactionManager"]

_STATE_ACTIVE = "active"
_STATE_COMMITTED = "committed"
_STATE_ABORTED = "aborted"


class Transaction:
    """A unit of atomic work spanning one or more spaces."""

    def __init__(self, manager: "TransactionManager", txn_id: int, lease: Lease) -> None:
        self.manager = manager
        self.txn_id = txn_id
        self.lease = lease
        self.state = _STATE_ACTIVE
        self._spaces: list["JavaSpace"] = []   # completion order (deterministic)
        self._space_ids: set[int] = set()      # O(1) membership for _enlist

    # -- space enrolment (called by JavaSpace) --------------------------------

    def _enlist(self, space: "JavaSpace") -> None:
        self.ensure_active()
        if id(space) not in self._space_ids:
            self._space_ids.add(id(space))
            self._spaces.append(space)

    # -- state ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        if self.state == _STATE_ACTIVE and self.lease.is_expired():
            # Lazy expiry: the lease ran out; abort on first observation.
            self.abort()
        return self.state == _STATE_ACTIVE

    def ensure_active(self) -> None:
        if not self.active:
            raise TransactionAbortedError(
                f"transaction {self.txn_id} is {self.state}"
            )

    # -- completion ----------------------------------------------------------------

    def commit(self) -> None:
        """Atomically apply all writes/takes across enlisted spaces."""
        if self.state == _STATE_COMMITTED:
            return
        if self.state == _STATE_ABORTED:
            raise TransactionAbortedError(f"transaction {self.txn_id} already aborted")
        if self.lease.is_expired():
            self.abort()
            raise TransactionAbortedError(
                f"transaction {self.txn_id} lease expired before commit"
            )
        self.state = _STATE_COMMITTED
        for space in self._spaces:
            space._complete_transaction(self, commit=True)
        self.lease.cancel()

    def abort(self) -> None:
        """Roll back: restore takes, discard writes, release read locks."""
        if self.state == _STATE_ABORTED:
            return
        if self.state == _STATE_COMMITTED:
            raise TransactionError(f"transaction {self.txn_id} already committed")
        self.state = _STATE_ABORTED
        for space in self._spaces:
            space._complete_transaction(self, commit=False)
        self.lease.cancel()

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is None:
            self.commit()
        else:
            if self.state == _STATE_ACTIVE:
                self.abort()


class TransactionManager:
    """Creates leased transactions and enforces their expiry.

    Expiry is enforced *server-side*: a watchdog armed at the lease
    deadline aborts the transaction (releasing its taken entries) even if
    the owning client connection stays perfectly healthy — a worker stuck
    in a long computation cannot sit on a task entry forever.  A renewed
    lease re-arms the watchdog at the new deadline instead of being
    forgotten.
    """

    def __init__(self, runtime: Runtime, metrics: Any = None) -> None:
        self._runtime = runtime
        if metrics is None:
            from repro.core.metrics import Metrics  # core imports this module
            metrics = Metrics(runtime)
        self._metrics = metrics
        self._ids = itertools.count(1)
        self.aborted_by_lease = 0

    def create(self, timeout_ms: float = FOREVER) -> Transaction:
        """Create a transaction whose lease lasts ``timeout_ms``."""
        lease = Lease(self._runtime, timeout_ms)
        txn = Transaction(self, next(self._ids), lease)
        if timeout_ms != FOREVER:
            def _expire() -> None:
                if txn.state != _STATE_ACTIVE:
                    return
                if not txn.lease.is_expired():
                    # Renewed since the watchdog was armed: chase the new
                    # deadline (the old timer used to fire once and give up,
                    # leaving a renewed-then-abandoned txn immortal).
                    remaining = txn.lease.remaining_ms()
                    if remaining != FOREVER:
                        self._runtime.call_later(remaining, _expire)
                    return
                self.aborted_by_lease += 1
                txn.abort()
                self._metrics.event("txn-lease-expired", txn_id=txn.txn_id)

            self._runtime.call_later(timeout_ms, _expire)
        return txn
