"""SNMP traps: event-driven monitoring instead of polling.

An extension beyond the paper (whose monitoring agent polls): the worker
agent *pushes* a trap whenever its load crosses a threshold band, so the
network management module reacts in one local sampling interval while
sending traffic only on changes.  The trap-vs-poll ablation bench
quantifies the trade.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Optional

from repro.errors import CodecError, ConnectionClosedError
from repro.net.address import Address
from repro.net.network import DatagramSocket, Network
from repro.node.machine import Node
from repro.runtime.base import Runtime
from repro.snmp.mib import HOST_RESOURCES
from repro.snmp.oid import Oid
from repro.snmp.pdu import TrapV2, decode_message, encode_message

__all__ = ["TrapReceiver", "LoadBandTrapEmitter", "TRAP_PORT"]

TRAP_PORT = 162


class TrapReceiver:
    """Listens on the trap port and dispatches decoded traps."""

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        host: str,
        community: str = "public",
        port: int = TRAP_PORT,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.address = Address(host, port)
        self.community = community
        self._socket = None
        self._running = False
        self._handlers: list[Callable[[TrapV2, Address], None]] = []
        self.stats = {"traps": 0, "rejected": 0}

    def on_trap(self, handler: Callable[[TrapV2, Address], None]) -> None:
        self._handlers.append(handler)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._socket = socket = self.network.bind_datagram(self.address)
        on_datagram = partial(self._on_datagram, socket)
        socket.serve(on_datagram)
        self.runtime.call_later(0.0, on_datagram)

    def stop(self) -> None:
        self._running = False
        if self._socket is not None:
            self._socket.close()

    def _on_datagram(self, socket: DatagramSocket) -> None:
        """Dispatch every queued trap, in the event its delivery woke."""
        try:
            while (received := socket.poll()) is not None:
                data, sender = received
                try:
                    pdu = decode_message(data)
                except CodecError:
                    self.stats["rejected"] += 1
                    continue
                if not isinstance(pdu, TrapV2) or pdu.community != self.community:
                    self.stats["rejected"] += 1
                    continue
                self.stats["traps"] += 1
                for handler in self._handlers:
                    handler(pdu, sender)
        except ConnectionClosedError:
            return


class LoadBandTrapEmitter:
    """Agent-side watcher: traps whenever the node's load changes band.

    Sampling is *local* (no network), so the check interval can be much
    shorter than a remote poll period; datagrams go out only on band
    transitions plus an initial announcement.
    """

    def __init__(
        self,
        runtime: Runtime,
        node: Node,
        destination: Address,
        band_of: Callable[[float], str],
        community: str = "public",
        check_interval_ms: float = 200.0,
        window_ms: float = 500.0,
    ) -> None:
        self.runtime = runtime
        self.node = node
        self.destination = destination
        self.band_of = band_of
        self.community = community
        self.check_interval_ms = check_interval_ms
        self.window_ms = window_ms
        self.running = False
        self._ids = itertools.count(1)
        self._socket = None
        self._band: Optional[str] = None
        self.traps_sent = 0

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._socket = self.node.network.bind_datagram(
            self.node.network.ephemeral(self.node.hostname)
        )
        self.runtime.call_later(0.0, self._announce)

    def stop(self) -> None:
        self.running = False
        if self._socket is not None:
            self._socket.close()

    def _current_load(self) -> float:
        return self.node.cpu.average_external(self.window_ms)

    def _emit(self, load: float) -> None:
        trap = TrapV2(
            request_id=next(self._ids),
            varbinds=[
                (HOST_RESOURCES.SYS_NAME, self.node.hostname),
                (HOST_RESOURCES.EXTERNAL_LOAD, round(load)),
            ],
            community=self.community,
        )
        self._socket.send_to(self.destination, encode_message(trap))
        self.traps_sent += 1

    # One timer chain: each check schedules the next where a sampling
    # process would have gone to sleep.

    def _announce(self) -> None:
        load = self._current_load()
        self._band = self.band_of(load)
        self._emit(load)  # initial announcement recruits idle nodes
        self.runtime.call_later(self.check_interval_ms, self._check)

    def _check(self) -> None:
        if not self.running:
            return
        load = self._current_load()
        band = self.band_of(load)
        if band != self._band:
            self._band = band
            self._emit(load)
        self.runtime.call_later(self.check_interval_ms, self._check)
