"""Jini-like federation substrate.

Implements the three protocols the paper describes in Section 3:

* **discovery** — a client multicasts a presence announcement on a
  well-known group/port; lookup services respond with their address;
* **join** — a service provider registers itself (with attributes) at the
  lookup service for as long as it runs;
* **lookup** — a client sends a desired attribute set; the lookup service
  performs an associative match and returns matching services.

The master module uses this to advertise its JavaSpaces service; clients
(workers, the network-management module) find the space without static
configuration.
"""

from repro.jini.lookup import LookupService, ServiceItem, ServiceRegistration
from repro.jini.discovery import DiscoveryClient, DISCOVERY_GROUP, DISCOVERY_PORT
from repro.jini.join import JoinManager

__all__ = [
    "LookupService",
    "ServiceItem",
    "ServiceRegistration",
    "DiscoveryClient",
    "JoinManager",
    "DISCOVERY_GROUP",
    "DISCOVERY_PORT",
]
