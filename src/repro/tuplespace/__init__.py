"""JavaSpaces-style tuple space.

Faithful to the JavaSpaces programming model the paper builds on:

* entries are typed objects with public fields; *templates* are entries of
  the same (or a super-) class whose ``None`` fields are wildcards;
* operations: ``write`` (returns a :class:`Lease`), ``read``/``take``
  (blocking with timeout), ``read_if_exists``/``take_if_exists``,
  ``notify`` (remote events), ``snapshot``;
* ``write``/``read``/``take`` may run under a :class:`Transaction` with
  ACID semantics — a partial failure either completes or rolls back,
  exactly the property the paper leans on for fault tolerance;
* entries are serialized on write and deserialized on every read/take, so
  callers always receive isolated copies (the JavaSpaces proxy behaviour).

:class:`SpaceServer`/:class:`SpaceProxy` expose the space over the
simulated network so workers on other nodes pay real (modelled) network
costs per operation.
"""

from repro.tuplespace.entry import Entry, entry_fields, matches
from repro.tuplespace.lease import Lease, FOREVER
from repro.tuplespace.events import EventRegistration, RemoteEvent
from repro.tuplespace.transaction import Transaction, TransactionManager
from repro.tuplespace.space import JavaSpace
from repro.tuplespace.proxy import RecoveryPolicy, SpaceProxy, SpaceServer
from repro.tuplespace.wal import CommitRecord, FileWalStore, WalStore, WriteAheadLog
from repro.tuplespace.durable import DurableSpace, HotStandby
from repro.tuplespace.sharding import (
    HashRing,
    ShardRouter,
    ShardedBatch,
    ShardedTransaction,
    stable_hash,
)

__all__ = [
    "RecoveryPolicy",
    "Entry",
    "entry_fields",
    "matches",
    "Lease",
    "FOREVER",
    "RemoteEvent",
    "EventRegistration",
    "Transaction",
    "TransactionManager",
    "JavaSpace",
    "SpaceServer",
    "SpaceProxy",
    "CommitRecord",
    "WalStore",
    "FileWalStore",
    "WriteAheadLog",
    "DurableSpace",
    "HotStandby",
    "HashRing",
    "ShardRouter",
    "ShardedBatch",
    "ShardedTransaction",
    "stable_hash",
]
