"""Management information base.

A sorted map from :class:`Oid` to value providers.  Providers may be plain
values or zero-argument callables (sampled at query time), which is how
the CPU model exposes live utilization without coupling to SNMP.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Optional, Union

from repro.errors import NoSuchOidError
from repro.snmp.oid import Oid

__all__ = ["Mib", "HOST_RESOURCES"]

Provider = Union[Any, Callable[[], Any]]


class HOST_RESOURCES:
    """Well-known OIDs used by the monitoring agent (RFC 1514 flavour)."""

    SYS_DESCR = Oid("1.3.6.1.2.1.1.1.0")
    SYS_UPTIME = Oid("1.3.6.1.2.1.1.3.0")
    SYS_NAME = Oid("1.3.6.1.2.1.1.5.0")
    #: average CPU load (%) over the last minute, per processor
    HR_PROCESSOR_LOAD = Oid("1.3.6.1.2.1.25.3.3.1.2.1")
    HR_MEMORY_SIZE_KB = Oid("1.3.6.1.2.1.25.2.2.0")
    HR_STORAGE_USED_KB = Oid("1.3.6.1.2.1.25.2.3.1.6.1")
    #: enterprise extension: CPU load excluding the framework's own worker
    #: process — what the inference engine actually polls (see DESIGN.md §5)
    EXTERNAL_LOAD = Oid("1.3.6.1.4.1.20010.1.1.0")
    #: enterprise extension: instantaneous total CPU (%), plotted in Figs 9-11
    TOTAL_LOAD = Oid("1.3.6.1.4.1.20010.1.2.0")


class Mib:
    """Sorted OID→provider map with GET/GETNEXT/SET access."""

    def __init__(self) -> None:
        self._providers: dict[Oid, Provider] = {}
        self._sorted: list[Oid] = []
        self._writable: set[Oid] = set()

    def register(self, oid: Oid, provider: Provider, writable: bool = False) -> None:
        """Bind ``oid`` to a value or callable; re-registering replaces."""
        oid = Oid(oid)
        if oid not in self._providers:
            bisect.insort(self._sorted, oid)
        self._providers[oid] = provider
        if writable:
            self._writable.add(oid)

    def get(self, oid: Oid) -> Any:
        provider = self._providers.get(Oid(oid))
        if provider is None:
            raise NoSuchOidError(str(oid))
        return provider() if callable(provider) else provider

    def get_next(self, oid: Oid) -> tuple[Oid, Any]:
        """First bound OID strictly after ``oid`` (lexicographic walk)."""
        index = bisect.bisect_right(self._sorted, Oid(oid))
        if index >= len(self._sorted):
            raise NoSuchOidError(f"end of MIB after {oid}")
        next_oid = self._sorted[index]
        return next_oid, self.get(next_oid)

    def set(self, oid: Oid, value: Any) -> None:
        oid = Oid(oid)
        if oid not in self._providers:
            raise NoSuchOidError(str(oid))
        if oid not in self._writable:
            raise NoSuchOidError(f"{oid} is read-only")
        self._providers[oid] = value
