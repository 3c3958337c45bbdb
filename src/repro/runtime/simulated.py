"""Runtime binding over the discrete-event kernel (virtual time)."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.runtime.base import CancelHandle, Condition, Lock, ProcessHandle, Runtime
from repro.sim.condition import SimCondition, SimLock
from repro.sim.kernel import EventHandle, SimKernel, SimProcess


class _SimProcessHandle(ProcessHandle):
    def __init__(self, runtime: "SimulatedRuntime", proc: SimProcess) -> None:
        self._runtime = runtime
        self._proc = proc
        self.name = proc.name

    def is_alive(self) -> bool:
        return not self._proc.finished

    def join(self, timeout_ms: Optional[float] = None) -> None:
        """Busy-wait in virtual time until the process finishes.

        Virtual-time polling is free (each poll is one heap event), so a
        short poll interval keeps join latency negligible.
        """
        runtime = self._runtime
        deadline = None if timeout_ms is None else runtime.now() + timeout_ms
        while not self._proc.finished:
            if deadline is not None and runtime.now() >= deadline:
                return
            runtime.sleep(1.0)


# The kernel's event handle already is a cancel handle; wrapping it cost
# an allocation per scheduled message for a cancel nobody calls.
CancelHandle.register(EventHandle)


class SimulatedRuntime(Runtime):
    """Deterministic virtual-time runtime used by all experiments."""

    def __init__(self) -> None:
        self.kernel = SimKernel()
        # Bind the clock and the scheduler directly (they run on every space
        # op, message and wake): the attributes skip the methods' frame.
        self.now = self.kernel.now  # type: ignore[method-assign]
        self.call_later = self.kernel.call_later  # type: ignore[method-assign]

    # -- Runtime interface -----------------------------------------------------

    def now(self) -> float:
        return self.kernel.now()

    def sleep(self, delay_ms: float) -> None:
        self.kernel.sleep(delay_ms)

    def spawn(self, fn: Callable[[], Any], name: str = "proc") -> ProcessHandle:
        return _SimProcessHandle(self, self.kernel.spawn(fn, name=name))

    def call_later(self, delay_ms: float, action: Callable[[], None]) -> CancelHandle:
        return self.kernel.call_later(delay_ms, action)

    def context(self) -> object:
        """The current simulated process (the kernel inside timer actions):
        OS threads are shared — a parked process's thread runs timer
        actions, a carrier thread runs one process after another."""
        return self.kernel.current or self.kernel

    def lock(self) -> Lock:
        return SimLock(self.kernel)

    def condition(self, lock: Optional[Lock] = None) -> Condition:
        return SimCondition(self.kernel, lock)  # type: ignore[arg-type]

    # -- simulation control -----------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        return self.kernel.run(until=until)

    def run_until_idle(self) -> float:
        return self.kernel.run_until_idle()

    def shutdown(self) -> None:
        self.kernel.shutdown()

    def __enter__(self) -> "SimulatedRuntime":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
