"""The Jini lookup service (registrar).

Maintains the mapping between each registered service and its attributes,
answers associative lookups, and enforces leases on registrations.
Serves RPC on a stream address plus a discovery responder on the
multicast group (see :mod:`repro.jini.discovery`), both by callback: a
request is answered in the event its delivery wakes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.errors import ConnectionClosedError, LookupError_
from repro.net.address import Address
from repro.net.network import DatagramSocket, Network, StreamSocket
from repro.runtime.base import Runtime
from repro.tuplespace.lease import FOREVER, Lease
from repro.jini.discovery import DISCOVERY_GROUP

__all__ = ["ServiceItem", "ServiceRegistration", "LookupService"]


@dataclass
class ServiceItem:
    """A service as stored in (and returned by) the registrar."""

    service_id: str
    service: Any                      # proxy/address understood by clients
    attributes: dict[str, Any] = field(default_factory=dict)

    def matches(self, query: dict[str, Any]) -> bool:
        """Associative match: every query attribute must be equal."""
        return all(self.attributes.get(k) == v for k, v in query.items())


@dataclass
class ServiceRegistration:
    registration_id: int
    item: ServiceItem
    lease: Lease


class LookupService:
    """In-network registrar with register/cancel/lookup RPC."""

    def __init__(self, runtime: Runtime, network: Network, address: Address) -> None:
        self.runtime = runtime
        self.network = network
        self.address = address
        self._registrations: dict[int, ServiceRegistration] = {}
        self._reg_ids = itertools.count(1)
        self._listener = None
        self._discovery_socket = None
        self._running = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._listener = self.network.serve_connections(
            self.address, lambda conn: partial(self._on_request, conn))
        # Join the discovery multicast group so presence announcements
        # from clients reach us.  Bound to an ephemeral port so several
        # registrars can coexist on one host; group membership, not the
        # bound port, is what routes the multicast.
        self._discovery_socket = discovery = self.network.bind_datagram(
            self.network.ephemeral(self.address.host)
        )
        self.network.join_multicast(DISCOVERY_GROUP, discovery)
        on_discovery = partial(self._on_discovery, discovery)
        discovery.serve(on_discovery)
        # Serving starts in the event a serving process used to start in.
        self.runtime.call_later(0.0, on_discovery)

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            self._listener.close()
        if self._discovery_socket is not None:
            self.network.leave_multicast(DISCOVERY_GROUP, self._discovery_socket)
            self._discovery_socket.close()

    # -- local API (also used by the RPC loop) --------------------------------------

    def register(
        self, item: ServiceItem, lease_ms: float = FOREVER
    ) -> ServiceRegistration:
        registration = ServiceRegistration(
            next(self._reg_ids), item, Lease(self.runtime, lease_ms)
        )
        self._registrations[registration.registration_id] = registration
        return registration

    def cancel(self, registration_id: int) -> None:
        registration = self._registrations.pop(registration_id, None)
        if registration is not None:
            registration.lease.cancel()

    def lookup(self, query: Optional[dict[str, Any]] = None) -> list[ServiceItem]:
        """Return all live services matching the attribute query."""
        self._reap()
        query = query or {}
        return [
            registration.item
            for registration in self._registrations.values()
            if registration.item.matches(query)
        ]

    def _reap(self) -> None:
        dead = [
            rid for rid, registration in self._registrations.items()
            if registration.lease.is_expired()
        ]
        for rid in dead:
            del self._registrations[rid]

    # -- serving, by callback ---------------------------------------------------------

    def _on_discovery(self, socket: DatagramSocket) -> None:
        """Answer multicast presence announcements with our RPC address."""
        try:
            while (received := socket.poll()) is not None:
                message, _sender = received
                if isinstance(message, dict) and message.get("type") == "discovery-request":
                    reply_to = Address(message["host"], message["port"])
                    socket.send_to(
                        reply_to,
                        {"type": "discovery-response", "registrar": self.address},
                    )
        except ConnectionClosedError:
            return

    def _on_request(self, conn: StreamSocket) -> None:
        """Answer every queued request; hang up when the client does."""
        try:
            while (request := conn.poll()) is not None:
                try:
                    conn.send({"ok": True, "value": self._dispatch(request)})
                except ConnectionClosedError:
                    raise
                except Exception as exc:
                    conn.send({"ok": False, "error": str(exc)})
        except ConnectionClosedError:
            conn.close()

    def _dispatch(self, request: dict[str, Any]) -> Any:
        op = request.get("op")
        args = request.get("args", {})
        if op == "register":
            registration = self.register(args["item"], args["lease_ms"])
            return {
                "registration_id": registration.registration_id,
                "remaining_ms": registration.lease.remaining_ms(),
            }
        if op == "cancel":
            self.cancel(args["registration_id"])
            return None
        if op == "lookup":
            return self.lookup(args.get("query"))
        raise LookupError_(f"unknown lookup op: {op!r}")
