"""Code server: the "web server residing at the master" (paper §4.3).

Worker classes are packaged as executable bundles ("jar files") and
downloaded at runtime by the remote node configuration engine.  The
transfer pays real network cost (bundle bytes through the latency model).
"""

from __future__ import annotations

from functools import partial

from repro.errors import ConnectionClosedError, FrameworkError
from repro.core.application import ClassLoadProfile
from repro.net.address import Address
from repro.net.network import Network, Serialized, StreamSocket
from repro.runtime.base import Runtime

__all__ = ["CodeServer", "CODE_SERVER_PORT"]

CODE_SERVER_PORT = 8088


class CodeServer:
    """Serves application code bundles over stream connections, by
    callback: a download is answered in the event its request arrives."""

    def __init__(self, runtime: Runtime, network: Network, host: str,
                 port: int = CODE_SERVER_PORT) -> None:
        self.runtime = runtime
        self.network = network
        self.address = Address(host, port)
        self._bundles: dict[str, ClassLoadProfile] = {}
        self._replies: dict[str, Serialized] = {}
        self._listener = None
        self._running = False
        self.stats = {"downloads": 0, "bytes_served": 0}

    def publish(self, app_id: str, profile: ClassLoadProfile) -> None:
        """Make an application's worker bundle downloadable."""
        self._bundles[app_id] = profile
        # The bundle body itself rides the network so the latency model
        # charges for its size, exactly like a real jar download.  It is
        # encoded once here, not per download: a fresh copy of a
        # 250-350 KB reply in whichever thread served each download
        # fragmented the malloc arenas of every worker thread.
        self._replies[app_id] = Serialized(
            {"ok": True, "profile": profile,
             "jar": b"\x00" * profile.bundle_bytes})

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._listener = self.network.serve_connections(
            self.address, lambda conn: partial(self._on_request, conn))

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            self._listener.close()

    def _on_request(self, conn: StreamSocket) -> None:
        """Answer the connection's one request, then hang up."""
        try:
            request = conn.poll()
            if request is None:
                return
            if not isinstance(request, dict) or "app_id" not in request:
                conn.send({"ok": False, "error": "bad request"})
            elif (profile := self._bundles.get(request["app_id"])) is None:
                conn.send({"ok": False, "error": f"no bundle for {request['app_id']!r}"})
            else:
                self.stats["downloads"] += 1
                self.stats["bytes_served"] += profile.bundle_bytes
                conn.send(self._replies[request["app_id"]])
        except ConnectionClosedError:
            pass
        conn.close()


def download_bundle(
    network: Network, host: str, server: Address, app_id: str
) -> ClassLoadProfile:
    """Client half: fetch a bundle; returns its class-load profile."""
    conn = network.connect(host, server)
    try:
        conn.send({"app_id": app_id})
        reply = conn.receive(timeout_ms=None)
        if reply is None or not reply.get("ok"):
            error = (reply or {}).get("error", "no reply")
            raise FrameworkError(f"bundle download failed: {error}")
        return reply["profile"]
    finally:
        conn.close()
