"""The simulated network: datagram, multicast and stream transports.

Endpoints exchange *pickled* payloads; delivery is scheduled through the
runtime's ``call_later`` after the latency model's delay, so the same code
works under virtual and wall-clock time.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import (
    AddressInUseError,
    ConnectionClosedError,
    ConnectionRefusedError_,
    NetworkError,
)
from repro.net.address import Address
from repro.net.latency import LatencyModel
from repro.runtime.base import Runtime
from repro.util.serialization import deserialize, serialize

__all__ = ["ChaosProfile", "Network", "DatagramSocket", "StreamSocket", "Listener",
           "MessageQueue"]


@dataclass(frozen=True)
class ChaosProfile:
    """Probabilistic misbehaviour layered on top of the latency model.

    Datagrams are dropped silently (UDP semantics).  Streams are reliable
    by contract, so a "dropped" stream message models a segment lost past
    the retry budget: the connection is reset and both endpoints observe
    :class:`ConnectionClosedError` — which is what a flaky link looks like
    to a TCP application.  Extra delay is exponential with mean
    ``extra_delay_ms``, applied with probability ``delay_probability``.
    """

    datagram_drop: float = 0.0
    stream_drop: float = 0.0
    extra_delay_ms: float = 0.0
    delay_probability: float = 1.0


class MessageQueue:
    """Blocking FIFO over a runtime condition; supports close semantics.

    Read either by processes blocked in :meth:`get` or — after
    :meth:`serve` — by one callback draining it with :meth:`poll`.  The
    callback runs in the zero-delay event a ``notify`` would have woken a
    blocked getter in, so replacing a parked reader process by a callback
    moves no event and no virtual instant.  It is scheduled only while
    *armed* (by an empty ``poll``), so at most one run is pending and, on
    the threaded runtime's timer threads, never two at once.
    """

    def __init__(self, runtime: Runtime) -> None:
        self._runtime = runtime
        self._lock = runtime.lock()
        self._cond = runtime.condition(self._lock)
        self._items: deque[Any] = deque()
        self.closed = False
        self._callback: Optional[Callable[[], None]] = None
        self._armed = False

    def put(self, item: Any) -> None:
        with self._lock:
            if self.closed:
                return
            self._items.append(item)
            self._signal()

    def _signal(self) -> None:
        if self._armed:
            self._armed = False
            self._runtime.call_later(0.0, self._callback)
        elif self._callback is None:
            self._cond.notify_all()

    def get(self, timeout_ms: Optional[float] = None) -> Any:
        """Pop the oldest item; blocks up to ``timeout_ms``.

        Returns ``None`` on timeout; raises :class:`ConnectionClosedError`
        when the queue is closed and drained.
        """
        with self._lock:
            self._runtime.wait_for(
                self._cond, lambda: bool(self._items) or self.closed, timeout_ms
            )
            if self._items:
                return self._items.popleft()
            if self.closed:
                raise ConnectionClosedError("endpoint closed")
            return None

    def serve(self, callback: Callable[[], None]) -> None:
        """Read this queue by ``callback`` from now on.  It is not run
        here: the caller polls for what is already queued."""
        self._callback = callback

    def poll(self, read: bool = True) -> Any:
        """Non-blocking :meth:`get`: the oldest item, or ``None`` after
        arming the serving callback for the next arrival or close.
        ``read=False`` only arms — a server whose request is parked still
        wants to hear the peer hang up.  Raises like :meth:`get`."""
        with self._lock:
            if read and self._items:
                return self._items.popleft()
            if self.closed:
                raise ConnectionClosedError("endpoint closed")
            self._armed = self._callback is not None
            return None

    def close(self) -> None:
        with self._lock:
            self.closed = True
            self._signal()

    def __len__(self) -> int:
        return len(self._items)


class DatagramSocket:
    """Connectionless endpoint (UDP-like; used by SNMP and discovery)."""

    def __init__(self, network: "Network", address: Address) -> None:
        self._network = network
        self.address = address
        self._queue = MessageQueue(network.runtime)

    def send_to(self, destination: Address, payload: Any) -> None:
        self._network._send_datagram(self.address, destination, payload)

    def receive(self, timeout_ms: Optional[float] = None) -> Optional[tuple[Any, Address]]:
        """Return ``(payload, sender)`` or ``None`` on timeout."""
        return self._queue.get(timeout_ms)

    def close(self) -> None:
        self._queue.close()
        self._network._unbind_datagram(self.address)

    def _deliver(self, payload_bytes: bytes, sender: Address) -> None:
        self._queue.put((deserialize(payload_bytes), sender))


class StreamSocket:
    """One side of a reliable, ordered, message-oriented connection.

    Ordering is enforced twice over: arrival times are kept monotonic per
    receiver (virtual-time determinism), and messages carry sequence
    numbers reassembled in a reorder buffer (real ``threading.Timer``
    callbacks on the threaded runtime can fire out of order).  Sequence
    numbers come from an ``itertools.count`` — atomic under the
    interpreter lock, so stamping takes no lock on either runtime.
    """

    def __init__(self, network: "Network", local: Address, remote: Address) -> None:
        self._network = network
        self.local = local
        self.remote = remote
        self._queue = queue = MessageQueue(network.runtime)
        #: Serve by callback instead of a process parked in :meth:`receive`
        #: (:meth:`MessageQueue.serve`, :meth:`MessageQueue.poll`).
        self.serve, self.poll = queue.serve, queue.poll
        self._peer: Optional["StreamSocket"] = None
        self.closed = False
        self._last_arrival = 0.0   # enforces FIFO delivery despite jitter
        self._seq_lock = network.runtime.lock()
        self._next_seq = itertools.count()  # stamped by senders to this socket
        self._expected_seq = 0     # next sequence to release to the queue
        self._reorder: dict[int, Optional[bytes]] = {}

    @property
    def eof(self) -> bool:
        """True once the peer's close has arrived (or this side closed):
        nothing more will ever be received."""
        return self._queue.closed

    def send(self, payload: Any) -> None:
        if self.closed:
            raise ConnectionClosedError("socket closed")
        peer = self._peer
        if peer is None:
            raise NetworkError("socket not connected")
        self._network._send_stream(self, peer, payload)

    def receive(self, timeout_ms: Optional[float] = None) -> Any:
        """Return the next message, ``None`` on timeout.

        Raises :class:`ConnectionClosedError` once the peer closed and the
        queue drained.
        """
        return self._queue.get(timeout_ms)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        peer = self._peer
        if peer is not None and not peer.closed:
            # Propagate EOF after network delay, never overtaking data
            # already in flight (same FIFO rule as _send_stream).
            network = self._network
            now = network.runtime.now()
            arrival = max(now + network.latency.base_ms, peer._last_arrival)
            peer._last_arrival = arrival
            network.runtime.call_later(
                arrival - now,
                network._arrival(self.local.host, peer, None,
                                 next(peer._next_seq)))
        self._queue.close()

    def _deliver(self, payload_bytes: Optional[bytes], seq: int) -> None:
        """Release in sequence order; ``None`` payload is the EOF marker.

        The queue is fed under the sequence lock: two timer threads of
        the threaded runtime must not swap what they just put in order.
        """
        with self._seq_lock:
            reorder = self._reorder
            reorder[seq] = payload_bytes
            while self._expected_seq in reorder:
                data = reorder.pop(self._expected_seq)
                self._expected_seq += 1
                if data is None:
                    self._queue.close()
                else:
                    self._queue.put(deserialize(data))


class Listener:
    """Passive stream endpoint: accepts incoming connections."""

    def __init__(self, network: "Network", address: Address) -> None:
        self._network = network
        self.address = address
        self._pending = pending = MessageQueue(network.runtime)
        #: Accept by callback instead of a process parked in :meth:`accept`.
        self.serve, self.poll = pending.serve, pending.poll

    def accept(self, timeout_ms: Optional[float] = None) -> Optional[StreamSocket]:
        return self._pending.get(timeout_ms)

    def close(self) -> None:
        self._pending.close()
        self._network._unbind_listener(self.address)


class Network:
    """A shared network segment connecting all endpoints of one experiment."""

    def __init__(
        self,
        runtime: Runtime,
        latency: LatencyModel = LatencyModel(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.runtime = runtime
        self.latency = latency
        self._rng = rng
        self._datagram: dict[Address, DatagramSocket] = {}
        self._listeners: dict[Address, Listener] = {}
        self._multicast: dict[Address, set[DatagramSocket]] = {}
        self._egress_free_at: dict[str, float] = {}  # bandwidth contention
        self._isolated: set[str] = set()             # partitioned hosts
        self._blocked: set[tuple[str, str]] = set()  # directed (src, dst) cuts
        self._paused: set[str] = set()               # stalled hosts
        self._held: dict[str, list] = {}             # per-host held deliveries
        self._slow: dict[str, float] = {}            # gray-failure multipliers
        self._chaos: Optional[ChaosProfile] = None
        self._chaos_rng: Optional[np.random.Generator] = None
        self._ephemeral_port = 49152
        #: Node-local singletons, keyed ``(host, kind)``: what co-hosted
        #: services share the way processes of one machine share an agent
        #: (a host's lease endpoint, a supervisor host's probe rounds).
        self.node_agents: dict[tuple[str, Any], Any] = {}
        self.stats = {"datagrams": 0, "datagram_bytes": 0, "messages": 0, "message_bytes": 0,
                      "dropped": 0, "partition_dropped": 0, "resets": 0}

    # -- fault injection ----------------------------------------------------------

    def set_chaos(self, profile: ChaosProfile,
                  rng: Optional[np.random.Generator] = None) -> None:
        """Enable probabilistic drop/delay injection.

        ``rng`` should be a dedicated seeded stream (e.g.
        ``RandomStreams.stream("chaos")``) so enabling chaos never perturbs
        the draws of the baseline latency model.
        """
        self._chaos = profile
        if rng is not None:
            self._chaos_rng = rng

    def clear_chaos(self) -> None:
        self._chaos = None

    def _chaos_drops(self, probability: float) -> bool:
        if self._chaos is None or probability <= 0.0 or self._chaos_rng is None:
            return False
        return bool(self._chaos_rng.random() < probability)

    def _chaos_delay_ms(self) -> float:
        chaos = self._chaos
        if chaos is None or chaos.extra_delay_ms <= 0.0 or self._chaos_rng is None:
            return 0.0
        if chaos.delay_probability < 1.0 and \
                self._chaos_rng.random() >= chaos.delay_probability:
            return 0.0
        return float(self._chaos_rng.exponential(chaos.extra_delay_ms))

    def _reset_stream(self, a: "StreamSocket", b: "StreamSocket") -> None:
        """Tear down both endpoints at once (TCP reset, not graceful EOF)."""
        self.stats["resets"] += 1
        for sock in (a, b):
            if not sock.closed:
                sock.closed = True
                sock._queue.close()

    def isolate(self, host: str) -> None:
        """Partition ``host`` off the segment: all its traffic (both
        directions) silently disappears until :meth:`heal`.  Established
        stream sockets stay open but their messages never arrive —
        exactly how a yanked cable looks to the endpoints."""
        self._isolated.add(host)

    def heal(self, host: str) -> None:
        self._isolated.discard(host)

    def is_isolated(self, host: str) -> bool:
        return host in self._isolated

    def partition(self, src: str, dst: str) -> None:
        """Cut the *directed* link ``src → dst``: traffic that way vanishes,
        replies the other way still flow — the asymmetric partition that
        turns naive failure detectors into split-brain generators.  Use
        :meth:`partition_pair` for the symmetric cut.  Either side may be
        the wildcard ``"*"`` (``partition(h, "*")`` = h's egress dies).
        Loopback (same-host) traffic is never partitioned — a dead NIC
        does not cut a host off from itself."""
        self._blocked.add((src, dst))

    def partition_pair(self, a: str, b: str) -> None:
        """Cut both directions between ``a`` and ``b`` (symmetric partial
        partition — the rest of the segment still sees both hosts)."""
        self._blocked.add((a, b))
        self._blocked.add((b, a))

    def heal_partition(self, a: str, b: str) -> None:
        """Restore both directions between ``a`` and ``b``."""
        self._blocked.discard((a, b))
        self._blocked.discard((b, a))

    def heal_all_partitions(self) -> None:
        self._blocked.clear()
        self._isolated.clear()

    def is_partitioned(self, src: str, dst: str) -> bool:
        return self._partitioned(src, dst)

    def pause(self, host: str) -> None:
        """Stall ``host``: every delivery to or from it is *held* (not
        dropped) until :meth:`resume` releases the backlog in arrival
        order.  Models a GC pause / SIGSTOP — heartbeats go unanswered,
        but no state is lost and the mail all arrives late."""
        self._paused.add(host)

    def resume(self, host: str) -> None:
        """Un-stall ``host`` and flush its held deliveries in order."""
        self._paused.discard(host)
        for sender_host, receiver_host, fn in self._held.pop(host, []):
            self._run_or_hold(sender_host, receiver_host, fn)

    def is_paused(self, host: str) -> bool:
        return host in self._paused

    def slow(self, host: str, factor: float) -> None:
        """Gray failure: multiply every delay touching ``host`` by
        ``factor``.  Nothing fails outright — the host is just N× slower
        on the wire, the failure mode detectors are worst at."""
        self._slow[host] = factor

    def heal_slow(self, host: str) -> None:
        self._slow.pop(host, None)

    def heal_all_slow(self) -> None:
        self._slow.clear()

    def resume_all(self) -> None:
        for host in list(self._paused):
            self.resume(host)

    def _slow_factor(self, a: str, b: str) -> float:
        return max(self._slow.get(a, 1.0), self._slow.get(b, 1.0))

    def _partitioned(self, a: str, b: str) -> bool:
        if a == b:
            return False  # loopback survives any partition
        if a in self._isolated or b in self._isolated:
            return True
        blocked = self._blocked
        return ((a, b) in blocked or (a, "*") in blocked
                or ("*", b) in blocked)

    def _run_or_hold(self, sender_host: str, receiver_host: str, fn) -> None:
        """Deliver now, unless either endpoint is paused — then park the
        delivery on the paused host's hold queue (receiver first, so a
        both-paused message re-holds correctly on partial resume)."""
        if receiver_host in self._paused:
            self._held.setdefault(receiver_host, []).append(
                (sender_host, receiver_host, fn))
            return
        if sender_host in self._paused:
            self._held.setdefault(sender_host, []).append(
                (sender_host, receiver_host, fn))
            return
        fn()

    def _egress_delay(self, host: str, size_bytes: int) -> float:
        """Extra delay from the sender's serial egress link (if modelled).

        Messages from one host transmit back-to-back: each send occupies
        the link for ``transmission_ms`` starting when the link frees up.
        """
        tx = self.latency.transmission_ms(size_bytes)
        if tx <= 0.0:
            return 0.0
        now = self.runtime.now()
        start = max(now, self._egress_free_at.get(host, 0.0))
        self._egress_free_at[host] = start + tx
        return (start + tx) - now

    # -- ports ------------------------------------------------------------------

    def ephemeral(self, host: str) -> Address:
        """Allocate a fresh ephemeral address on ``host``."""
        self._ephemeral_port += 1
        return Address(host, self._ephemeral_port)

    # -- datagram ---------------------------------------------------------------

    def bind_datagram(self, address: Address) -> DatagramSocket:
        if address in self._datagram:
            raise AddressInUseError(f"datagram address in use: {address}")
        sock = DatagramSocket(self, address)
        self._datagram[address] = sock
        return sock

    def _unbind_datagram(self, address: Address) -> None:
        self._datagram.pop(address, None)

    def _send_datagram(self, source: Address, destination: Address, payload: Any) -> None:
        data = serialize(payload)
        self.stats["datagrams"] += 1
        self.stats["datagram_bytes"] += len(data)
        if destination in self._multicast:
            members = list(self._multicast[destination])
            for member in members:
                if self._partitioned(source.host, member.address.host):
                    self.stats["dropped"] += 1
                    self.stats["partition_dropped"] += 1
                    continue
                self._schedule_datagram(data, source, member)
            return
        if self._partitioned(source.host, destination.host):
            self.stats["dropped"] += 1
            self.stats["partition_dropped"] += 1
            return
        if self.latency.drops(self._rng):
            self.stats["dropped"] += 1
            return
        target = self._datagram.get(destination)
        if target is None:
            return  # UDP: silently dropped
        self._schedule_datagram(data, source, target)

    def _schedule_datagram(self, data: bytes, source: Address, target: DatagramSocket) -> None:
        if self._chaos is not None and self._chaos_drops(self._chaos.datagram_drop):
            self.stats["dropped"] += 1
            return
        delay = self.latency.delay_ms(len(data), self._rng)
        delay += self._egress_delay(source.host, len(data))
        delay += self._chaos_delay_ms()
        delay *= self._slow_factor(source.host, target.address.host)
        self.runtime.call_later(
            delay,
            lambda: self._run_or_hold(source.host, target.address.host,
                                      lambda: target._deliver(data, source)),
        )

    # -- multicast ----------------------------------------------------------------

    def join_multicast(self, group: Address, socket: DatagramSocket) -> None:
        """Subscribe ``socket`` to datagrams addressed to ``group``."""
        self._multicast.setdefault(group, set()).add(socket)

    def leave_multicast(self, group: Address, socket: DatagramSocket) -> None:
        self._multicast.get(group, set()).discard(socket)

    # -- stream -------------------------------------------------------------------

    def listen(self, address: Address) -> Listener:
        if address in self._listeners:
            raise AddressInUseError(f"listener address in use: {address}")
        listener = Listener(self, address)
        self._listeners[address] = listener
        return listener

    def _unbind_listener(self, address: Address) -> None:
        self._listeners.pop(address, None)

    def connect(self, source_host: str, destination: Address) -> StreamSocket:
        """Open a connection to a listener; raises if nobody listens."""
        if self._partitioned(source_host, destination.host):
            raise ConnectionRefusedError_(
                f"host unreachable (partitioned): {destination}"
            )
        listener = self._listeners.get(destination)
        if listener is None:
            raise ConnectionRefusedError_(f"connection refused: {destination}")
        local = self.ephemeral(source_host)
        client = StreamSocket(self, local, destination)
        server = StreamSocket(self, destination, local)
        client._peer = server
        server._peer = client
        listener._pending.put(server)
        return client

    def _send_stream(self, sender: StreamSocket, receiver: StreamSocket, payload: Any) -> None:
        data = serialize(payload)
        size = len(data)
        stats = self.stats
        stats["messages"] += 1
        stats["message_bytes"] += size
        sender_host = sender.local.host
        receiver_host = receiver.local.host
        if (self._isolated or self._blocked) and self._partitioned(
                sender_host, receiver_host):
            stats["dropped"] += 1
            stats["partition_dropped"] += 1
            return  # vanishes on the wire; the receiver just waits
        chaos = self._chaos
        if chaos is not None and self._chaos_drops(chaos.stream_drop):
            # A reliable stream that loses a segment for good is a dead
            # connection: reset both endpoints after the one-way delay.
            # (No sequence number is allocated, so the reorder buffer of
            # messages already in flight is not poisoned.)
            stats["dropped"] += 1
            self.runtime.call_later(
                self.latency.base_ms,
                lambda: self._reset_stream(sender, receiver),
            )
            return
        # Each optional term is skipped when the state it reads is off;
        # the ones that are on apply in this fixed order, so a delay is
        # the same float whichever terms were skipped (x + 0.0, x * 1.0).
        now = self.runtime.now()
        delay = self.latency.delay_ms(size, self._rng)
        if self.latency.egress_kb_per_ms is not None:
            delay += self._egress_delay(sender_host, size)
        if chaos is not None:
            delay += self._chaos_delay_ms()
        if self._slow:
            delay *= self._slow_factor(sender_host, receiver_host)
        # Reliable ordered delivery: never deliver before an earlier message.
        arrival = max(now + delay, receiver._last_arrival)
        receiver._last_arrival = arrival
        self.runtime.call_later(
            arrival - now,
            self._arrival(sender_host, receiver, data,
                          next(receiver._next_seq)))

    def _arrival(self, sender_host: str, receiver: StreamSocket,
                 data: Optional[bytes], seq: int) -> Callable[[], None]:
        """The delivery event of one stream message (``None``: EOF)."""
        def arrive() -> None:
            if self._paused:
                self._run_or_hold(sender_host, receiver.local.host,
                                  lambda: receiver._deliver(data, seq))
            else:
                receiver._deliver(data, seq)
        return arrive
