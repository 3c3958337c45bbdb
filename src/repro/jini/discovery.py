"""The Jini discovery protocol.

"The protocol consists of broadcasting a presence announcement by dropping
a multicast packet on a well-known port.  This packet contains the host's
IP address and port number so that the lookup server can contact it."
(paper, Section 3).
"""

from __future__ import annotations

from repro.net.address import Address
from repro.net.network import Network
from repro.runtime.base import Runtime

__all__ = ["DiscoveryClient", "DISCOVERY_GROUP", "DISCOVERY_PORT"]

#: Jini's well-known multicast discovery port.
DISCOVERY_PORT = 4160
DISCOVERY_GROUP = Address("224.0.1.85", DISCOVERY_PORT)


class DiscoveryClient:
    """Finds lookup services via multicast presence announcements."""

    #: How long :meth:`discover` listens for responses, virtual ms.
    LISTEN_MS = 50.0

    def __init__(self, runtime: Runtime, network: Network, host: str) -> None:
        self.runtime = runtime
        self.network = network
        self.host = host

    def discover(self) -> list[Address]:
        """Broadcast an announcement; collect the registrar addresses that
        respond within :attr:`LISTEN_MS`."""
        reply_address = self.network.ephemeral(self.host)
        socket = self.network.bind_datagram(reply_address)
        try:
            socket.send_to(
                DISCOVERY_GROUP,
                {
                    "type": "discovery-request",
                    "host": reply_address.host,
                    "port": reply_address.port,
                },
            )
            registrars: list[Address] = []
            deadline = self.runtime.now() + self.LISTEN_MS
            while True:
                remaining = deadline - self.runtime.now()
                if remaining <= 0:
                    break
                received = socket.receive(timeout_ms=remaining)
                if received is None:
                    break
                message, _sender = received
                if (
                    isinstance(message, dict)
                    and message.get("type") == "discovery-response"
                ):
                    registrar = message["registrar"]
                    if registrar not in registrars:
                        registrars.append(registrar)
            return registrars
        finally:
            socket.close()
