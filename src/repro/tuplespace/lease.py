"""Leases: time-bounded grants on entries, registrations and transactions.

Jini's leasing discipline — every distributed resource is granted for a
finite time and must be renewed — is what lets the space survive crashed
clients: abandoned resources expire instead of leaking.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.errors import LeaseError
from repro.runtime.base import Runtime

__all__ = ["Lease", "FOREVER"]

#: Sentinel duration meaning "never expires" (Lease.FOREVER in Jini).
FOREVER = math.inf


class Lease:
    """A grant that expires at ``expiration_ms`` of runtime time.

    ``on_cancel`` is invoked when the lease is cancelled explicitly,
    ``on_renew`` after each renewal; expiry itself is checked lazily by
    the resource owner via :meth:`is_expired` (the space also runs a
    reaper, which a renewal must re-arm: it may have *shortened* the
    lease).
    """

    # One per stored entry: slots keep a 20 000-entry store small.
    __slots__ = ("_runtime", "_on_cancel", "_on_renew", "granted_at",
                 "expiration_ms", "cancelled")

    def __init__(
        self,
        runtime: Runtime,
        duration_ms: float = FOREVER,
        on_cancel: Optional[Callable[[], None]] = None,
        on_renew: Optional[Callable[[], None]] = None,
    ) -> None:
        if duration_ms < 0:
            raise LeaseError(f"negative lease duration: {duration_ms}")
        self._runtime = runtime
        self._on_cancel = on_cancel
        self._on_renew = on_renew
        now = runtime.now()
        self.granted_at = now
        self.expiration_ms = (
            FOREVER if duration_ms == FOREVER else now + duration_ms
        )
        self.cancelled = False

    @classmethod
    def until(cls, runtime: Runtime, now: float, expiration_ms: float,
              on_cancel: Optional[Callable[[], None]] = None,
              on_renew: Optional[Callable[[], None]] = None) -> "Lease":
        """A lease granted at ``now`` that ends at the *absolute*
        ``expiration_ms`` — how recovery re-grants an entry its original
        deadline bit for bit (a duration would round-trip through
        ``now + (deadline - now)``).  A deadline already past yields an
        expired lease, which its owner reaps lazily."""
        lease = cls.__new__(cls)
        lease._runtime = runtime
        lease._on_cancel = on_cancel
        lease._on_renew = on_renew
        lease.granted_at = now
        lease.expiration_ms = expiration_ms
        lease.cancelled = False
        return lease

    def is_expired(self) -> bool:
        if self.cancelled:
            return True
        expiration = self.expiration_ms
        # FOREVER short-circuit: visibility checks run per candidate on the
        # space's hot path, and most entries never carry a finite lease.
        return expiration != FOREVER and self._runtime.now() >= expiration

    def remaining_ms(self) -> float:
        if self.cancelled:
            return 0.0
        if self.expiration_ms == FOREVER:
            return FOREVER
        return max(0.0, self.expiration_ms - self._runtime.now())

    def renew(self, duration_ms: float) -> None:
        """Extend the lease by ``duration_ms`` from *now* (Jini renewal)."""
        if self.is_expired():
            raise LeaseError("cannot renew an expired or cancelled lease")
        if duration_ms == FOREVER:
            self.expiration_ms = FOREVER
        else:
            self.expiration_ms = self._runtime.now() + duration_ms
        if self._on_renew is not None:
            self._on_renew()

    def cancel(self) -> None:
        """Relinquish the grant immediately."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()
