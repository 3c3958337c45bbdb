"""The Jini discovery protocol.

"The protocol consists of broadcasting a presence announcement by dropping
a multicast packet on a well-known port.  This packet contains the host's
IP address and port number so that the lookup server can contact it."
(paper, Section 3).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.address import Address
from repro.net.network import Network
from repro.runtime.base import Runtime

__all__ = ["DiscoveryClient", "LookupLocator", "DISCOVERY_GROUP", "DISCOVERY_PORT"]

#: Jini's well-known multicast discovery port.
DISCOVERY_PORT = 4160
DISCOVERY_GROUP = Address("224.0.1.85", DISCOVERY_PORT)


class LookupLocator:
    """Unicast discovery: reach a known registrar without multicast.

    Jini's ``LookupLocator("jini://host[:port]")`` equivalent — used when
    multicast doesn't cross the network segment.  ``probe`` confirms the
    registrar actually answers before clients commit to it.
    """

    def __init__(self, runtime: Runtime, network: Network, host: str,
                 registrar: Address) -> None:
        self.runtime = runtime
        self.network = network
        self.host = host
        self.registrar = registrar

    def probe(self) -> bool:
        """True iff a lookup service answers at the address."""
        from repro.errors import ConnectionClosedError, NetworkError
        from repro.jini.join import LookupClient

        client = LookupClient(self.network, self.host, self.registrar)
        try:
            client.lookup({})
            return True
        except (NetworkError, ConnectionClosedError):
            return False
        finally:
            client.close()

    def get_registrar(self) -> Optional[Address]:
        return self.registrar if self.probe() else None


class DiscoveryClient:
    """Finds lookup services via multicast presence announcements."""

    def __init__(self, runtime: Runtime, network: Network, host: str) -> None:
        self.runtime = runtime
        self.network = network
        self.host = host

    def discover(self, timeout_ms: float = 50.0) -> list[Address]:
        """Broadcast an announcement; collect registrar addresses.

        Listens for responses until ``timeout_ms`` elapses.
        """
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
            deadline = self.runtime.now() + timeout_ms
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
