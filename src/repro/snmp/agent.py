"""The SNMP worker-agent.

Runs on every monitored node: binds UDP port 161, decodes request PDUs,
authenticates the community string, answers GET/GETNEXT/SET against the
node's MIB.  Malformed packets are dropped (as real agents do); bad
communities are silently ignored (SNMPv1 behaviour without traps).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.errors import CodecError, ConnectionClosedError, NoSuchOidError
from repro.net.address import Address
from repro.net.network import DatagramSocket, Network
from repro.runtime.base import Runtime
from repro.snmp.mib import Mib
from repro.snmp.pdu import (
    ERROR_BAD_VALUE,
    ERROR_GEN_ERR,
    ERROR_NO_SUCH_NAME,
    GetBulkRequest,
    GetNextRequest,
    GetRequest,
    GetResponse,
    SetRequest,
    decode_message,
    encode_message,
)

__all__ = ["SnmpAgent", "SNMP_PORT"]

SNMP_PORT = 161


class SnmpAgent:
    """Serves one node's MIB over datagrams."""

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        host: str,
        mib: Optional[Mib] = None,
        community: str = "public",
        port: int = SNMP_PORT,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.address = Address(host, port)
        self.mib = mib if mib is not None else Mib()
        self.community = community
        self._socket = None
        self._running = False
        self.stats = {"requests": 0, "bad_community": 0, "malformed": 0, "errors": 0}

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._socket = socket = self.network.bind_datagram(self.address)
        on_datagram = partial(self._on_datagram, socket)
        socket.serve(on_datagram)
        # Serving starts in the event a serving process used to start in:
        # requests that arrive meanwhile wait in the socket.
        self.runtime.call_later(0.0, on_datagram)

    def stop(self) -> None:
        self._running = False
        if self._socket is not None:
            self._socket.close()

    # -- serving, by callback ----------------------------------------------------

    def _on_datagram(self, socket: DatagramSocket) -> None:
        """Answer every queued request, in the event its delivery woke."""
        try:
            while (received := socket.poll()) is not None:
                data, sender = received
                response = self._handle(data)
                if response is not None:
                    socket.send_to(sender, response)
        except ConnectionClosedError:
            return  # stopped: nothing more will arrive

    def _handle(self, data: bytes) -> Optional[bytes]:
        try:
            request = decode_message(data)
        except CodecError:
            self.stats["malformed"] += 1
            return None
        if request.community != self.community:
            self.stats["bad_community"] += 1
            return None  # SNMPv1: silently drop
        self.stats["requests"] += 1

        response = GetResponse(
            request_id=request.request_id, community=self.community
        )
        if isinstance(request, GetBulkRequest):
            response.varbinds = self._bulk(request)
            return encode_message(response)
        varbinds = []
        for index, (oid, value) in enumerate(request.varbinds, start=1):
            try:
                if isinstance(request, GetRequest):
                    varbinds.append((oid, self.mib.get(oid)))
                elif isinstance(request, GetNextRequest):
                    varbinds.append(self.mib.get_next(oid))
                elif isinstance(request, SetRequest):
                    self.mib.set(oid, value)
                    varbinds.append((oid, value))
                else:
                    response.error_status = ERROR_GEN_ERR
                    response.error_index = index
                    break
            except NoSuchOidError:
                self.stats["errors"] += 1
                response.error_status = ERROR_NO_SUCH_NAME
                response.error_index = index
                varbinds.append((oid, None))
            except (TypeError, ValueError):
                self.stats["errors"] += 1
                response.error_status = ERROR_BAD_VALUE
                response.error_index = index
                varbinds.append((oid, None))
        response.varbinds = varbinds
        return encode_message(response)

    def _bulk(self, request: GetBulkRequest) -> list:
        """RFC 1905 GetBulk: GETNEXT sweeps per varbind.

        The first ``non_repeaters`` varbinds get a single GETNEXT; the
        rest get up to ``max_repetitions`` successive GETNEXTs.  Runs off
        the end of the MIB are simply truncated (no endOfMibView marker in
        this subset).
        """
        out = []
        for index, (oid, _value) in enumerate(request.varbinds):
            repetitions = 1 if index < request.non_repeaters else max(
                1, request.max_repetitions
            )
            cursor = oid
            for _ in range(repetitions):
                try:
                    cursor, value = self.mib.get_next(cursor)
                except NoSuchOidError:
                    break
                out.append((cursor, value))
        return out
