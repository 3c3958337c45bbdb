"""Remote node configuration engine (paper §4.3).

Two responsibilities on the worker side:

* **dynamic class loading** — download the application bundle from the
  code server at the master and "load" it (a CPU spike whose height and
  length are the application's class-load profile; this is the startup
  peak visible in Figs 9–11(a));
* **the worker's lifecycle** — the one holder of its Fig. 5 state, a
  Start generation and a halted flag.  Signals land here and the worker
  reads them only *between* tasks: "the node configuration engine waits
  for the worker to complete its current task, and forwards the signal
  before the worker fetches the next task."
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.application import ClassLoadProfile
from repro.core.codeserver import download_bundle
from repro.core.signals import Signal
from repro.core.states import WorkerState, WorkerStateMachine
from repro.net.address import Address
from repro.net.network import Network
from repro.node.machine import Node
from repro.runtime.base import Runtime

__all__ = ["RemoteNodeConfigurationEngine"]


class RemoteNodeConfigurationEngine:
    """Per-worker loader and the one holder of the worker's lifecycle:
    its Fig. 5 ``machine``, the ``generation`` of the newest Start (a loop
    serves only its own) and ``halted``, set when the host stops."""

    def __init__(self, runtime: Runtime, network: Network, node: Node,
                 code_server: Address) -> None:
        self.runtime = runtime
        self.network = network
        self.node = node
        self.code_server = code_server
        self.classes_loaded = False
        self.loads = 0                     # how many times classes were (re)loaded
        self.model_time = True             # charge the class-load CPU spike?
        self.machine = WorkerStateMachine()
        self.generation = 0
        self.halted = False
        self._cond = runtime.condition()

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

    # -- the lifecycle ----------------------------------------------------------------

    def deliver(self, signal: Signal) -> tuple[WorkerState, WorkerState, int]:
        """Apply ``signal`` (raising IllegalTransitionError off Fig. 5) and
        wake the waiters; returns the (old, new) states and the generation
        it leaves, read under the lock."""
        with self._cond:
            old = self.machine.state
            new = self.machine.apply(signal)
            if signal is Signal.START:
                self.generation += 1
            self._cond.notify_all()
            return old, new, self.generation

    def halt(self) -> None:
        """The host stopped or crashed: every loop ends at its gate and
        no Start is served again."""
        with self._cond:
            self.halted = True
            self._cond.notify_all()

    def ended(self, generation: int) -> bool:
        """Is the loop of Start ``generation`` over — Stopped, halted or
        replaced by a newer Start?"""
        return (self.halted or generation != self.generation
                or self.machine.state is WorkerState.STOPPED)

    def await_start(self, served: int) -> Optional[int]:
        """Block while Stopped or until a Start newer than ``served``;
        returns its generation, or ``None`` once halted."""
        with self._cond:
            while not self.halted and (
                    self.generation == served
                    or self.machine.state is WorkerState.STOPPED):
                self._cond.wait()
            return None if self.halted else self.generation

    def wait_for_clearance(self, generation: int,
                           honored: Callable[[Signal], None],
                           give_back: Callable[[], None]) -> bool:
        """The between-tasks gate: may the loop of Start ``generation``
        fetch its next task?  Any loop but a Running one first calls
        ``give_back()`` (its carry goes back to the space); then a Paused
        loop parks until Resumed, and a Stopped, halted or replaced one
        ends (False).  ``honored(signal)`` is invoked when a Pause takes
        effect and when the matching Resume wakes it — the *worker signal
        time* of Figs 9–11(b)."""
        machine = self.machine
        if machine.state is WorkerState.RUNNING and not self.ended(generation):
            return True
        give_back()
        with self._cond:
            if machine.state is WorkerState.PAUSED and not self.ended(generation):
                honored(Signal.PAUSE)
                while (machine.state is WorkerState.PAUSED
                       and not self.ended(generation)):
                    self._cond.wait()
                if not self.ended(generation):
                    honored(Signal.RESUME)
            return not self.ended(generation)
