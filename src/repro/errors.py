"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Simulation-control exceptions (:class:`SimKilled`)
deliberately derive from :class:`BaseException` so that application-level
``except Exception`` handlers inside simulated processes do not swallow a
kernel shutdown request.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """All simulated processes are blocked and no event can wake them."""


class SimKilled(BaseException):
    """Raised inside a simulated process when the kernel shuts it down.

    Derives from BaseException on purpose: user code catching ``Exception``
    must not accidentally survive a kernel shutdown.
    """


class NetworkError(ReproError):
    """Errors from the simulated network substrate."""


class AddressInUseError(NetworkError):
    """A socket is already bound to the requested address."""


class ConnectionRefusedError_(NetworkError):
    """No listener at the destination address."""


class ConnectionClosedError(NetworkError):
    """The peer closed the stream socket."""


class TimeoutError_(ReproError):
    """A blocking operation exceeded its timeout."""


class SpaceError(ReproError):
    """Errors from the tuple-space engine."""


class EntryError(SpaceError):
    """An object is not a valid space entry (e.g. not serializable)."""


class TransactionError(SpaceError):
    """Illegal transaction usage (wrong manager, reuse after completion)."""


class TransactionAbortedError(TransactionError):
    """The transaction was aborted (explicitly or by lease expiry)."""


class LeaseError(SpaceError):
    """Illegal lease operation (renewal after expiry/cancel)."""


class FencedError(SpaceError):
    """The operation carried a stale primary epoch and was rejected.

    Raised by a space server when a client (or the server itself) is
    behind the cluster's current epoch — e.g. a proxy still talking to a
    deposed primary, or a revived old primary that has been superseded
    by a promoted standby.  The proxy reacts by re-discovering the
    current primary through the lookup service and retrying; the request
    was rejected *before* execution, so the retry is safe even for
    non-idempotent operations."""


class AdmissionError(SpaceError):
    """The operation was refused by the space's admission controller.

    Raised by a space server when a tenant is over quota (too many tasks
    in flight, write rate above its token bucket) or when the server
    sheds load under a queue-depth watermark.  Like :class:`FencedError`
    the check runs *before* dispatch, so a rejected operation has **no
    side effects** and a retry is safe even for non-idempotent
    operations.  ``retry_after_ms`` is the server's hint for when the
    client should try again (token-bucket refill time, or the shedding
    backoff); proxies honour it with capped-exponential backoff.

    ``admitted_entries`` is a *client-side* annotation, never marshalled:
    a sharded router's scatter ``write_all`` splits one bulk write over
    several servers, each of which is individually pre-dispatch-atomic —
    but one shard can admit its group while another rejects.  The router
    then attaches the entries that **did** land before re-raising, so
    recorders can log them as committed (not rejected) and retriers can
    drop them from the re-issued remainder instead of duplicating them.
    A server-raised (or wire-reconstructed) ``AdmissionError`` always has
    an empty tuple: the lone server rejected before executing anything."""

    def __init__(self, message: str, retry_after_ms: float = 0.0,
                 tenant: str | None = None, reason: str = "quota") -> None:
        super().__init__(message)
        self.retry_after_ms = float(retry_after_ms)
        self.tenant = tenant
        self.reason = reason
        self.admitted_entries: tuple = ()


class WalCorruptionError(SpaceError):
    """The write-ahead log or a checkpoint is damaged in place.

    Raised while loading or replaying durable state when a frame fails
    its checksum (or does not decode, or skips an LSN) *and* valid
    frames follow it — so it is not the torn tail a crash mid-append
    leaves, which is dropped silently.  Recovery stops here instead of
    silently losing every committed record after the damage.
    ``offset`` is where in the buffer the bad frame starts;
    ``last_good_lsn`` the last record read intact before it (None when
    there was none)."""

    def __init__(self, message: str, offset: int = 0,
                 last_good_lsn: int | None = None) -> None:
        super().__init__(f"{message} (at byte {offset}, "
                         f"last good lsn {last_good_lsn})")
        self.offset = offset
        self.last_good_lsn = last_good_lsn


class OutOfMemoryError(ReproError):
    """A node's modelled RAM cannot satisfy an allocation."""


class LookupError_(ReproError):
    """Errors from the Jini-like lookup/discovery substrate."""


class SnmpError(ReproError):
    """Errors from the SNMP substrate."""


class BadCommunityError(SnmpError):
    """Community string rejected by the agent."""


class NoSuchOidError(SnmpError):
    """The requested OID is not present in the agent MIB."""


class CodecError(SnmpError):
    """Malformed PDU bytes."""


class FrameworkError(ReproError):
    """Errors from the adaptive-cluster framework core."""


class IllegalTransitionError(FrameworkError):
    """A worker state transition not permitted by the Fig. 5 state machine."""


class ConfigurationError(FrameworkError):
    """Invalid framework configuration."""


class MasterCrashedError(FrameworkError):
    """The master process was killed (fault injection); the run did not
    complete and may be resumed from its space checkpoint."""
