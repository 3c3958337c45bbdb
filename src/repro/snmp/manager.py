"""The SNMP manager: polls worker-agents with retries and timeouts.

The paper's monitoring agent calls into this layer (there via JNI; here
directly) to fetch system parameters such as CPU load from registered
workers.

Every request is a transaction in a table keyed by request id, with its
own retry/timeout timer; replies are read by a callback in the event
their delivery wakes and matched to their transaction by id, so callers
sharing one manager never see each other's replies.  :meth:`fetch`, the
monitor's GET, answers by callback.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Optional

from repro.errors import (
    CodecError,
    ConnectionClosedError,
    NoSuchOidError,
    SnmpError,
    TimeoutError_,
)
from repro.net.address import Address
from repro.net.network import Network
from repro.runtime.base import Runtime
from repro.snmp.agent import SNMP_PORT
from repro.snmp.oid import Oid
from repro.snmp.pdu import (
    ERROR_NO_SUCH_NAME,
    GetRequest,
    decode_message,
    encode_message,
)

__all__ = ["SnmpManager"]


class _Transaction:
    """One request in flight: its bytes, its attempts (made and allowed)
    and the timer of the current one."""

    __slots__ = ("agent", "data", "request_id", "sent", "attempts",
                 "on_done", "deadline", "timer")

    def __init__(self, agent: Address, data: bytes, request_id: int,
                 attempts: int,
                 on_done: Callable[[Any, Optional[Exception]], None]) -> None:
        self.agent = agent
        self.data = data
        self.request_id = request_id
        self.sent = 0
        self.attempts = attempts
        self.on_done = on_done
        self.deadline = 0.0
        self.timer: Any = None


class SnmpManager:
    """Sends request PDUs to agents and matches their responses."""

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        host: str,
        community: str = "public",
        timeout_ms: float = 200.0,
        retries: int = 2,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.host = host
        self.community = community
        self.timeout_ms = timeout_ms
        self.retries = retries
        self._request_ids = itertools.count(1)
        self._lock = runtime.lock()
        self._pending: dict[int, _Transaction] = {}
        self._socket = network.bind_datagram(network.ephemeral(host))
        self._socket.serve(self._on_datagram)
        self._socket.poll()     # nothing is queued yet: only arms
        self.stats = {"requests": 0, "retries": 0, "timeouts": 0}

    def session(self) -> "SnmpManager":
        """A sibling manager on its own socket, with its own request ids,
        counting into this one's :attr:`stats` — one per monitored agent,
        as the paper's per-worker monitor polled."""
        sibling = SnmpManager(self.runtime, self.network, self.host,
                              community=self.community,
                              timeout_ms=self.timeout_ms, retries=self.retries)
        sibling.stats = self.stats
        return sibling

    def close(self) -> None:
        self._socket.close()

    # -- public operations ------------------------------------------------------

    def fetch(self, agent_host: str, oid: Oid,
              on_done: Callable[[Any, Optional[Exception]], None]) -> None:
        """GET one OID by callback: ``on_done(value, None)`` once the
        agent answers, ``on_done(None, error)`` on an error status, on
        :class:`TimeoutError_` after the last attempt, or on
        :class:`ConnectionClosedError` if the manager is closed first."""
        oid = Oid(oid)
        request = GetRequest(
            request_id=next(self._request_ids),
            varbinds=[(oid, None)],
            community=self.community,
        )

        def done(response: Any, error: Optional[Exception]) -> None:
            if error is not None:
                on_done(None, error)
                return
            try:
                value = _values(response)[oid]
            except SnmpError as exc:
                on_done(None, exc)
                return
            on_done(value, None)

        self._request(Address(agent_host, SNMP_PORT), request, done)

    # -- plumbing -----------------------------------------------------------------
    #
    # Event positions are those of a caller blocked in the socket: an
    # attempt's timer is armed at the instant its receive armed one, and
    # a reply is handled in the event that would have woken it.

    def _request(self, agent: Address, request: Any,
                 on_done: Callable[[Any, Optional[Exception]], None]) -> None:
        txn = _Transaction(agent, encode_message(request), request.request_id,
                           self.retries + 1, on_done)
        with self._lock:
            self._pending[txn.request_id] = txn
            self._attempt(txn)

    def _attempt(self, txn: _Transaction) -> None:
        """Put one attempt on the wire and arm its timeout with the
        floats a receive blocked for ``timeout_ms`` computed."""
        self.stats["requests"] += 1
        txn.sent += 1
        self._socket.send_to(txn.agent, txn.data)
        now = self.runtime.now()
        timeout = (now + self.timeout_ms) - now
        txn.deadline = now + timeout
        self._arm(txn, txn.deadline - now)

    def _arm(self, txn: _Transaction, remaining: float) -> None:
        txn.timer = self.runtime.call_later(max(0.0, remaining),
                                            partial(self._expire, txn))

    def _expire(self, txn: _Transaction) -> None:
        with self._lock:
            if self._pending.get(txn.request_id) is not txn:
                return      # answered while this timer was due
            remaining = txn.deadline - self.runtime.now()
            if remaining > 0:
                self._arm(txn, remaining)   # woke early: wait out the rest
                return
            if txn.sent < txn.attempts:
                self.stats["retries"] += 1
                self._attempt(txn)
                return
            del self._pending[txn.request_id]
            self.stats["timeouts"] += 1
        txn.on_done(None, TimeoutError_(
            f"no SNMP response from {txn.agent} after {txn.sent} attempts"))

    def _on_datagram(self) -> None:
        """Match every queued reply to its transaction by request id; a
        reply nobody waits for (a late duplicate) is dropped."""
        while True:
            with self._lock:
                try:
                    received = self._socket.poll()
                except ConnectionClosedError:
                    failed = list(self._pending.values())
                    self._pending.clear()
                    break
                if received is None:
                    return
                try:
                    response = decode_message(received[0])
                except CodecError:
                    continue    # corrupt: keep listening
                txn = self._pending.pop(response.request_id, None)
                if txn is None:
                    continue
                txn.timer.cancel()
            txn.on_done(response, None)
        for txn in failed:
            txn.timer.cancel()
            txn.on_done(None, ConnectionClosedError("SNMP manager closed"))


def _values(response: Any) -> dict[Oid, Any]:
    """A GET response's ``{oid: value}``, or the error its status names."""
    if response.error_status == ERROR_NO_SUCH_NAME:
        bad = response.varbinds[response.error_index - 1][0]
        raise NoSuchOidError(str(bad))
    if response.error_status != 0:
        raise SnmpError(f"agent error status {response.error_status}")
    return dict(response.varbinds)
