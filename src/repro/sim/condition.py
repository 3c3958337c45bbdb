"""Condition variables and locks for simulated processes.

Because the kernel is cooperative (a single process runs at a time and
yields only at explicit blocking points), :class:`SimLock` does not need to
exclude anything — it exists so that code written against the runtime
abstraction (``with lock: ... cond.wait()``) runs unchanged on the threaded
runtime, where the lock is a real ``threading.Lock``.  :class:`SimCondition`
implements monitor-style ``wait(timeout)/notify/notify_all`` over kernel
events.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import SimulationError
from repro.sim.kernel import SimKernel, SimProcess

__all__ = ["SimLock", "SimCondition"]

#: Owner sentinel for code running outside any process (timer callbacks,
#: which the dispatch loop runs with ``kernel._current = None``).  Such
#: code is atomic with respect to all processes, so holding a lock there
#: is always safe.
_KERNEL_THREAD = object()


class SimLock:
    """Cooperative no-op lock that still tracks ownership for debugging."""

    def __init__(self, kernel: SimKernel) -> None:
        self._kernel = kernel
        self._owner: object = None
        self._depth = 0

    def _caller(self) -> object:
        proc = self._kernel._current
        return proc if proc is not None else _KERNEL_THREAD

    def acquire(self) -> bool:
        # Space operations enter/leave a lock per call, so this is hot:
        # _caller() is inlined and the error path kept out of line.
        proc = self._kernel._current
        if proc is None:
            proc = _KERNEL_THREAD
        owner = self._owner
        if owner is not None and owner is not proc:
            # Cannot happen under cooperative scheduling unless a process
            # blocked while holding the lock, which the monitor pattern
            # (wait releases the lock) prevents.
            owner_name = getattr(owner, "name", "<kernel>")
            proc_name = getattr(proc, "name", "<kernel>")
            raise SimulationError(
                f"lock owned by {owner_name} acquired by {proc_name}"
            )
        self._owner = proc
        self._depth += 1
        return True

    def release(self) -> None:
        depth = self._depth - 1
        if depth < 0:
            raise SimulationError("release of unacquired lock")
        self._depth = depth
        if depth == 0:
            self._owner = None

    # ``with lock:`` never binds the target, so acquire's ``True`` return
    # is fine — aliasing skips one frame per entry.
    __enter__ = acquire

    def __exit__(self, *exc: object) -> None:
        self.release()


class _Waiter:
    """One blocked process; woken at most once (by notify or timeout)."""

    __slots__ = ("proc", "notified", "woken")

    def __init__(self, proc: SimProcess) -> None:
        self.proc = proc
        self.notified = False
        self.woken = False


class SimCondition:
    """Monitor condition over kernel events.

    ``wait`` returns ``True`` if the process was notified, ``False`` on
    timeout — matching :class:`threading.Condition.wait`.
    """

    def __init__(self, kernel: SimKernel, lock: Optional[SimLock] = None) -> None:
        self._kernel = kernel
        self._lock = lock if lock is not None else SimLock(kernel)
        self._waiters: deque[_Waiter] = deque()

    # Delegate the lock protocol so ``with cond:`` works.
    def acquire(self) -> bool:
        return self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "SimCondition":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block the calling process until notified or ``timeout`` ms pass."""
        kernel = self._kernel
        proc = kernel.current()
        waiter = _Waiter(proc)
        self._waiters.append(waiter)

        handle = None
        if timeout is not None:
            def _timeout() -> None:
                if not waiter.woken:
                    waiter.woken = True
                    if waiter in self._waiters:
                        self._waiters.remove(waiter)
                    kernel._wake(proc)

            handle = kernel.call_later(max(0.0, timeout), _timeout)

        # Monitor semantics: release while blocked, reacquire on wake.  The
        # release must precede the park: this thread may run timer actions
        # inline while parked, and they take locks as the kernel.
        depth = self._lock._depth
        for _ in range(depth):
            self._lock.release()
        try:
            kernel._park(proc)
        finally:
            for _ in range(depth):
                self._lock.acquire()
        if handle is not None:
            handle.cancel()
        return waiter.notified

    def notify(self, n: int = 1) -> None:
        """Wake up to ``n`` waiters at the current virtual time."""
        kernel = self._kernel
        woken = 0
        while self._waiters and woken < n:
            waiter = self._waiters.popleft()
            if waiter.woken:
                continue
            waiter.woken = True
            waiter.notified = True
            kernel.call_later(0.0, waiter.proc._kernel_wake)
            woken += 1

    def notify_all(self) -> None:
        self.notify(n=len(self._waiters))
