"""The network management module (paper §4.1, §4.4; Fig. 4).

Server half of the rule-base protocol:

1. the server listens for client connections;
2. a worker's SNMP client connects and sends its address;
3. the server assigns it a client ID (via the inference engine registry);
4.–7. a per-worker monitor polls the worker's SNMP agent for CPU load
   through its own SNMP session and feeds the sample to the inference
   engine, whose orders go back over the socket — the worker's link;
8. the client forwards the signal to the worker application; go to 5.

The module is a fact source and a link: the inference engine is the
framework's, and its orders from every other fact source (the
preemption governor) take the same socket.  The worker's own Stop comes
back on it as a fact.

Nothing here is a process: connections are accepted and registrations
read by callback, and each monitor is one timer chain — a poll's answer
schedules the next poll ``poll_interval_ms`` later.

The monitored OID is the *external* load by default (load excluding the
framework's own worker process — see DESIGN.md §5 for why), switchable to
total load for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

from repro.errors import ConnectionClosedError, SnmpError, TimeoutError_
from repro.core.inference import InferenceEngine, WorkerRecord
from repro.core.metrics import Metrics
from repro.core.signals import Signal
from repro.net.address import Address
from repro.net.network import Network, StreamSocket
from repro.runtime.base import Runtime
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import HOST_RESOURCES

from repro.util.log import get_logger

__all__ = ["NetworkManagementModule", "RULEBASE_PORT"]

RULEBASE_PORT = 5601

_log = get_logger("netmgmt")


@dataclass
class _Client:
    """One rule-base connection: the worker it registered (once it has)
    and, in poll mode, the SNMP session its monitor polls through."""

    conn: StreamSocket
    record: Optional[WorkerRecord] = None
    session: Optional[SnmpManager] = None


class NetworkManagementModule:
    """SNMP monitoring + inference engine + rule-base server."""

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        host: str,
        metrics: Metrics,
        inference: InferenceEngine,
        poll_interval_ms: float = 1000.0,
        community: str = "public",
        load_metric: str = "external",
        port: int = RULEBASE_PORT,
        mode: str = "poll",
        trap_port: Optional[int] = None,
        registry: Any = None,
    ) -> None:
        if load_metric not in ("external", "total"):
            raise ValueError(f"load_metric must be 'external' or 'total': {load_metric}")
        if mode not in ("poll", "trap"):
            raise ValueError(f"mode must be 'poll' or 'trap': {mode}")
        self.runtime = runtime
        self.network = network
        self.address = Address(host, port)
        self.metrics = metrics
        self.inference = inference
        self.poll_interval_ms = poll_interval_ms
        self.load_oid = (
            HOST_RESOURCES.EXTERNAL_LOAD
            if load_metric == "external"
            else HOST_RESOURCES.HR_PROCESSOR_LOAD
        )
        self.mode = mode
        self._trap_port = trap_port
        self.snmp = SnmpManager(runtime, network, host, community=community)
        self._listener = None
        self._trap_receiver = None
        self.running = False
        self.stats = {"polls": 0, "poll_failures": 0, "signals_sent": 0,
                      "traps_received": 0, "stale_stops": 0}
        if registry is not None:
            # Surface as ``netmgmt.polls`` etc. plus the inference
            # engine's decision counters — read-through, no per-poll cost.
            registry.expose_dict("netmgmt", self.stats)
            registry.expose_dict("snmp", self.snmp.stats)
            registry.expose_dict("inference", self.inference.stats)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._listener = self.network.serve_connections(
            self.address, lambda conn: partial(self._on_client, _Client(conn)))
        if self.mode == "trap":
            from repro.snmp.trap import TRAP_PORT, TrapReceiver

            self._trap_receiver = TrapReceiver(
                self.runtime, self.network, self.address.host,
                community=self.snmp.community,
                port=self._trap_port if self._trap_port is not None else TRAP_PORT,
            )
            self._trap_receiver.on_trap(self._handle_trap)
            self._trap_receiver.start()

    def stop(self) -> None:
        self.running = False
        if self._listener is not None:
            self._listener.close()
        if self._trap_receiver is not None:
            self._trap_receiver.stop()
        self.snmp.close()

    # -- rule-base server ---------------------------------------------------------------

    def _on_client(self, client: _Client) -> None:
        """Registration (steps 2–3), then the socket is read for the
        worker's own Stop.  In poll mode the monitor starts and owns the
        client's end; in trap mode the client going away ends it."""
        conn = client.conn
        try:
            if client.record is None:
                registration = conn.poll()
                if registration is None:
                    return
                if not isinstance(registration, dict) or registration.get("type") != "register":
                    conn.close()
                    return
                self._register(client, registration["host"])
                if self.mode == "poll":
                    # Its own session: monitors polling concurrently
                    # through one socket would read (and drop) each
                    # other's replies.
                    client.session = self.snmp.session()
                    self._poll(client)
            while self.running:
                message = conn.poll()
                if message is None:
                    return
                if message.get("type") == "stopped":
                    self.inference.observe_stop(client.record.worker_id)
        except ConnectionClosedError:
            pass
        if self.mode == "trap":
            self._end(client)

    def _register(self, client: _Client, hostname: str) -> None:
        record = client.record = self.inference.register(
            hostname, partial(self._send_signal, client.conn))
        reply = {"type": "registered", "worker_id": record.worker_id,
                 "mode": self.mode}
        if self.mode == "trap":
            reply["trap_address"] = self._trap_receiver.address
            reply["thresholds"] = {
                "idle_below": self.inference.policy.idle_below,
                "stop_above": self.inference.policy.stop_above,
            }
        client.conn.send(reply)
        self.metrics.event("worker-registered", worker=record.hostname,
                           worker_id=record.worker_id)

    def _send_signal(self, conn: StreamSocket, signal: Signal) -> None:
        """The monitored worker's link: an order goes down its socket."""
        conn.send({"type": "signal", "signal": signal.value,
                   "sent_at": self.runtime.now()})

    def _end(self, client: _Client) -> None:
        if client.session is not None:
            client.session.close()
        if client.record is not None:
            self.inference.unregister(client.record.worker_id)
        client.conn.close()

    def _handle_trap(self, trap, sender) -> None:
        """Trap-mode inference: one decision per load-band transition."""
        varbinds = dict(trap.varbinds)
        hostname = varbinds.get(HOST_RESOURCES.SYS_NAME)
        load = varbinds.get(HOST_RESOURCES.EXTERNAL_LOAD)
        if hostname is None or load is None:
            return
        record = next(
            (r for r in self.inference.workers() if r.hostname == hostname), None
        )
        if record is None:
            return
        self.stats["traps_received"] += 1
        self._feed(record, float(load))

    # -- the monitor: steps 4–7 as one timer chain --------------------------------

    def _poll(self, client: _Client) -> None:
        if not self.running:
            self._end(client)
            return
        self.stats["polls"] += 1
        client.session.fetch(client.record.hostname, self.load_oid,
                             partial(self._on_sample, client))

    def _on_sample(self, client: _Client, load: Any,
                   error: Optional[Exception]) -> None:
        if error is not None and not isinstance(error, (TimeoutError_, SnmpError)):
            self._end(client)   # the session closed under the poll
            return
        try:
            self._feed(client.record,
                       None if error is not None else float(load))
        except ConnectionClosedError:
            self._end(client)
            return
        self.runtime.call_later(self.poll_interval_ms,
                                partial(self._poll, client))

    def poll_once(self, record: WorkerRecord) -> Optional[Signal]:
        """One blocking SNMP poll + inference decision for a worker."""
        self.stats["polls"] += 1
        try:
            load = float(self.snmp.get_one(record.hostname, self.load_oid))
        except (TimeoutError_, SnmpError):
            return self._feed(record, None)
        return self._feed(record, load)

    def _feed(self, record: WorkerRecord,
              load: Optional[float]) -> Optional[Signal]:
        """Feed one sample (``None``: the poll failed) to the inference
        engine, which orders what it decides over the worker's link;
        returns that signal, if any."""
        if load is None:
            self.stats["poll_failures"] += 1
            # Stale-data guard: an unreachable agent means every further
            # decision would rest on an old sample; the inference engine
            # decides whether that now warrants stopping the worker.
            signal = self.inference.observe_failure(record.worker_id,
                                                    self.runtime.now())
            if signal is not None:
                self.stats["stale_stops"] += 1
                self.stats["signals_sent"] += 1
                self.metrics.event(
                    "stale-sample", worker=record.hostname,
                    signal=str(signal),
                    last_sample_ms=record.last_sample_ms,
                )
                _log.info("t=%.0fms worker=%s samples stale -> %s",
                          self.runtime.now(), record.hostname, signal)
            return signal
        self.metrics.record(f"load/{record.hostname}", load)
        signal = self.inference.observe(record.worker_id, load, self.runtime.now())
        if signal is not None:
            self.stats["signals_sent"] += 1
            self.metrics.event("signal-sent", worker=record.hostname,
                               signal=str(signal), load=load)
            _log.info("t=%.0fms worker=%s load=%.0f%% -> %s",
                      self.runtime.now(), record.hostname, load, signal)
        return signal
