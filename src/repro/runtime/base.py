"""Abstract runtime interface.

Time is always expressed in milliseconds so the simulated and threaded
bindings agree with the paper's plots.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Protocol, runtime_checkable


@runtime_checkable
class Lock(Protocol):
    """Mutual-exclusion handle (real lock or cooperative no-op)."""

    def acquire(self) -> bool: ...
    def release(self) -> None: ...
    def __enter__(self) -> Any: ...
    def __exit__(self, *exc: object) -> Any: ...


@runtime_checkable
class Condition(Protocol):
    """Monitor condition with millisecond timeouts (both runtimes)."""

    def acquire(self) -> bool: ...
    def release(self) -> None: ...
    def __enter__(self) -> Any: ...
    def __exit__(self, *exc: object) -> Any: ...
    def wait(self, timeout: Optional[float] = None) -> bool: ...
    def notify(self, n: int = 1) -> None: ...
    def notify_all(self) -> None: ...


class ProcessHandle(ABC):
    """Handle on a spawned process/thread."""

    name: str

    @abstractmethod
    def is_alive(self) -> bool: ...

    @abstractmethod
    def join(self, timeout_ms: Optional[float] = None) -> None: ...


class CancelHandle(ABC):
    @abstractmethod
    def cancel(self) -> None: ...


class Runtime(ABC):
    """Execution substrate: clock, processes, and synchronization."""

    @abstractmethod
    def now(self) -> float:
        """Current time in milliseconds."""

    @abstractmethod
    def sleep(self, delay_ms: float) -> None:
        """Block the calling process for ``delay_ms``."""

    @abstractmethod
    def spawn(self, fn: Callable[[], Any], name: str = "proc") -> ProcessHandle:
        """Start a new process running ``fn``."""

    @abstractmethod
    def call_later(self, delay_ms: float, action: Callable[[], None]) -> CancelHandle:
        """Run ``action`` after ``delay_ms`` (timer callback, not a process)."""

    @abstractmethod
    def lock(self) -> Lock: ...

    @abstractmethod
    def condition(self, lock: Optional[Lock] = None) -> Condition: ...

    def context(self) -> object:
        """The calling execution context: the weak key for ambient
        per-process state (the tracer's active-span stack).  The OS thread
        here (the object: idents are reused); the simulated binding
        answers with the simulated process."""
        return threading.current_thread()

    # -- conveniences shared by both bindings --------------------------------

    def wait_for(
        self,
        condition: Condition,
        predicate: Callable[[], bool],
        timeout_ms: Optional[float] = None,
    ) -> bool:
        """Monitor-style wait loop; caller must hold ``condition``.

        Returns True when ``predicate()`` became true, False on timeout.
        """
        if predicate():
            return True
        deadline = None if timeout_ms is None else self.now() + timeout_ms
        while not predicate():
            remaining = None
            if deadline is not None:
                remaining = deadline - self.now()
                if remaining <= 0:
                    return False
            condition.wait(remaining)
        return True
