"""Service discovery manager: a client-side cache of matching services.

Mirrors Jini's ``ServiceDiscoveryManager``/``LookupCache``: a client
declares the attribute query once; the manager discovers registrars,
keeps a local cache of matching services fresh, and notifies listeners
when services appear or disappear (e.g. their lease lapsed).  Freshness
here comes from periodic registrar polling (the real SDM also uses
remote events; polling keeps the protocol surface small and is what the
paper's era of clients typically fell back to).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ConnectionClosedError, LookupError_
from repro.jini.discovery import DiscoveryClient
from repro.jini.join import LookupClient
from repro.jini.lookup import ServiceItem
from repro.net.address import Address
from repro.net.network import Network
from repro.runtime.base import Runtime

__all__ = ["ServiceDiscoveryManager"]


class ServiceDiscoveryManager:
    """Maintains a live cache of services matching an attribute query."""

    #: How long each refresh listens for registrar announcements.
    DISCOVERY_TIMEOUT_MS = 50.0

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        host: str,
        query: dict[str, Any],
        refresh_interval_ms: float = 2_000.0,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.host = host
        self.query = dict(query)
        self.refresh_interval_ms = refresh_interval_ms
        self.running = False
        self._cache: dict[str, ServiceItem] = {}
        self._clients: dict[Address, LookupClient] = {}
        self._added: list[Callable[[ServiceItem], None]] = []
        self._removed: list[Callable[[ServiceItem], None]] = []
        self.stats = {"refreshes": 0, "discoveries": 0}

    # -- listeners -------------------------------------------------------------

    def on_added(self, callback: Callable[[ServiceItem], None]) -> None:
        self._added.append(callback)

    def on_removed(self, callback: Callable[[ServiceItem], None]) -> None:
        self._removed.append(callback)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.runtime.spawn(self._refresh_loop, name=f"sdm:{self.host}")

    def stop(self) -> None:
        self.running = False
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    # -- queries ---------------------------------------------------------------------

    def services(self) -> list[ServiceItem]:
        """Current cache contents (cheap local call)."""
        return list(self._cache.values())

    def lookup_one(self) -> Optional[ServiceItem]:
        """A cached match, if the last refresh found one."""
        return next(iter(self._cache.values()), None)

    # -- internals -----------------------------------------------------------------------

    def refresh_once(self) -> None:
        """One discovery + lookup round; fires add/remove callbacks."""
        self.stats["refreshes"] += 1
        registrars = DiscoveryClient(self.runtime, self.network, self.host).discover(
            timeout_ms=self.DISCOVERY_TIMEOUT_MS
        )
        self.stats["discoveries"] += len(registrars)
        found: dict[str, ServiceItem] = {}
        for registrar in registrars:
            client = self._clients.get(registrar)
            if client is None:
                client = LookupClient(self.network, self.host, registrar)
                self._clients[registrar] = client
            try:
                for item in client.lookup(self.query):
                    found[item.service_id] = item
            except (LookupError_, ConnectionClosedError):
                client.close()
                self._clients.pop(registrar, None)

        for service_id, item in found.items():
            if service_id not in self._cache:
                self._cache[service_id] = item
                for callback in self._added:
                    callback(item)
        for service_id in list(self._cache):
            if service_id not in found:
                item = self._cache.pop(service_id)
                for callback in self._removed:
                    callback(item)
        # Keep cached items fresh (attributes may change on re-registration).
        self._cache.update(found)

    def _refresh_loop(self) -> None:
        while self.running:
            self.refresh_once()
            self.runtime.sleep(self.refresh_interval_ms)
