"""Remote node configuration engine (paper §4.3).

Two responsibilities on the worker side:

* **dynamic class loading** — download the application bundle from the
  code server at the master and "load" it (a CPU spike whose height and
  length are the application's class-load profile; this is the startup
  peak visible in Figs 9–11(a));
* **signal interception** — queue signals arriving from the network
  management module and hand them to the worker *between* tasks: "the
  node configuration engine waits for the worker to complete its current
  task, and forwards the signal before the worker fetches the next task."
"""

from __future__ import annotations

from repro.core.application import ClassLoadProfile
from repro.core.codeserver import download_bundle
from repro.core.signals import Signal
from repro.net.address import Address
from repro.net.network import Network
from repro.node.machine import Node
from repro.runtime.base import Runtime

__all__ = ["RemoteNodeConfigurationEngine"]


class RemoteNodeConfigurationEngine:
    """Per-worker loader + signal mailbox."""

    def __init__(self, runtime: Runtime, network: Network, node: Node,
                 code_server: Address) -> None:
        self.runtime = runtime
        self.network = network
        self.node = node
        self.code_server = code_server
        self.classes_loaded = False
        self.loads = 0                     # how many times classes were (re)loaded
        self.model_time = True             # charge the class-load CPU spike?
        self._cond = runtime.condition()
        self.paused = False
        self.stop_requested = False

    # -- class loading ------------------------------------------------------------

    def load_classes(self, app_id: str) -> ClassLoadProfile:
        """Download and load the worker implementation (the startup spike)."""
        profile = download_bundle(self.network, self.node.hostname,
                                  self.code_server, app_id)
        self.node.memory.allocate("worker-classes", max(1, profile.bundle_bytes // 1024))
        if self.model_time and profile.work_ref_ms > 0:
            self.node.cpu.execute(profile.work_ref_ms,
                                  demand_percent=profile.demand_percent)
        self.classes_loaded = True
        self.loads += 1
        return profile

    def unload_classes(self) -> None:
        """Dropped on Stop; the next Start pays the reload cost again."""
        self.node.memory.free("worker-classes")
        self.classes_loaded = False

    # -- signal mailbox --------------------------------------------------------------

    def deliver(self, signal: Signal) -> None:
        """Called by the SNMP client when a signal arrives from the server."""
        with self._cond:
            if signal == Signal.PAUSE:
                self.paused = True
            elif signal == Signal.RESUME:
                self.paused = False
            elif signal == Signal.STOP:
                self.stop_requested = True
                self.paused = False  # a paused worker must wake to die
            self._cond.notify_all()

    def wait_for_clearance(self, honored) -> bool:
        """Block while paused; return False when the worker must stop.

        ``honored(signal)`` is invoked when a Pause actually takes effect
        (worker blocked) and when the matching Resume wakes it — the
        quantities plotted as *worker signal time* in Figs 9–11(b).
        """
        with self._cond:
            if self.stop_requested:
                return False
            if self.paused:
                honored(Signal.PAUSE)
                while self.paused and not self.stop_requested:
                    self._cond.wait()
                if not self.stop_requested:
                    honored(Signal.RESUME)
            return not self.stop_requested

    def reset_for_start(self) -> None:
        self.stop_requested = False
        self.paused = False
