"""The Jini join protocol: register a service for as long as it runs."""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ConnectionClosedError, LookupError_
from repro.net.address import Address
from repro.net.network import Network, StreamSocket
from repro.jini.lookup import ServiceItem
from repro.tuplespace.lease import FOREVER

__all__ = ["JoinManager", "LookupClient"]


class LookupClient:
    """Stream-RPC client stub for a remote :class:`LookupService`.

    Every call is bounded by ``call_timeout_ms``: a partitioned or gray-slow
    registrar must surface as :class:`ConnectionClosedError`, not hang the
    caller forever — re-discovery is exactly the moment clients can least
    afford to block.  On timeout the connection is dropped so a late reply
    can never be mistaken for the answer to the next call.
    """

    def __init__(self, network: Network, host: str, registrar: Address,
                 call_timeout_ms: Optional[float] = 5_000.0) -> None:
        self.network = network
        self.host = host
        self.registrar = registrar
        self.call_timeout_ms = call_timeout_ms
        self._conn: Optional[StreamSocket] = None

    def _call(self, op: str, args: dict[str, Any]) -> Any:
        if self._conn is None or self._conn.closed:
            self._conn = self.network.connect(self.host, self.registrar)
        self._conn.send({"op": op, "args": args})
        reply = self._conn.receive(timeout_ms=self.call_timeout_ms)
        if reply is None:
            self.close()
            raise ConnectionClosedError(
                f"registrar rpc {op!r} timed out or connection closed")
        if not reply.get("ok"):
            raise LookupError_(reply.get("error", "lookup RPC failed"))
        return reply.get("value")

    def register(self, item: ServiceItem, lease_ms: float = FOREVER) -> dict[str, Any]:
        return self._call("register", {"item": item, "lease_ms": lease_ms})

    def cancel(self, registration_id: int) -> None:
        self._call("cancel", {"registration_id": registration_id})

    def lookup(self, query: Optional[dict[str, Any]] = None) -> list[ServiceItem]:
        return self._call("lookup", {"query": query})

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class JoinManager:
    """Registers a service under a lease that never expires; :meth:`stop`
    cancels the registration."""

    def __init__(self, network: Network, host: str, registrar: Address,
                 item: ServiceItem) -> None:
        self.client = LookupClient(network, host, registrar)
        self.item = item
        self.registration_id: Optional[int] = None

    def start(self) -> None:
        if self.registration_id is None:
            self.registration_id = self.client.register(
                self.item)["registration_id"]

    def stop(self) -> None:
        if self.registration_id is not None:
            try:
                self.client.cancel(self.registration_id)
            except (LookupError_, ConnectionClosedError):
                pass
        self.client.close()
