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
from functools import partial
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.kernel import SimKernel

__all__ = ["SimLock", "SimCondition"]

#: Owner sentinel for code running outside any process (timer callbacks,
#: which the dispatch loop runs with ``kernel.current = None``).  Such
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
        proc = self._kernel.current
        return proc if proc is not None else _KERNEL_THREAD

    def acquire(self) -> bool:
        # Space operations enter/leave a lock per call, so this is hot:
        # _caller() is inlined and the error path kept out of line.
        proc = self._kernel.current
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

    def release(self, *exc: object) -> None:
        depth = self._depth - 1
        if depth < 0:
            raise SimulationError("release of unacquired lock")
        self._depth = depth
        if depth == 0:
            self._owner = None

    # ``with lock:`` never binds the target, so acquire's ``True`` return
    # is fine, and ``release`` ignores what ``__exit__`` is handed.
    __enter__ = acquire
    __exit__ = release


class _Waiter:
    """One blocked process; woken at most once (by notify or timeout).

    No ``__init__``: ``wait`` fills the slots itself, a frame cheaper on
    every wait (each modelled CPU charge and blocking RPC makes one).
    """

    __slots__ = ("proc", "notified", "woken")


class SimCondition:
    """Monitor condition over kernel events.

    ``wait`` returns ``True`` if the process was notified, ``False`` on
    timeout — matching :class:`threading.Condition.wait`.
    """

    def __init__(self, kernel: SimKernel, lock: Any = None) -> None:
        self._kernel = kernel
        self._lock = lock if lock is not None else SimLock(kernel)
        self._waiters: deque[_Waiter] = deque()

    # Delegate the lock protocol so ``with cond:`` works.
    def acquire(self) -> bool:
        return self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "SimCondition":
        self._lock.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self._lock.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block the calling process until notified or ``timeout`` ms pass."""
        kernel = self._kernel
        proc = kernel.current
        if proc is None:
            raise SimulationError("not inside a simulated process")
        waiter = _Waiter()
        waiter.proc = proc
        waiter.notified = waiter.woken = False
        self._waiters.append(waiter)

        handle = None
        if timeout is not None:
            handle = kernel.call_later(timeout if timeout > 0.0 else 0.0,
                                       partial(self._expire, waiter))

        # Monitor semantics: release while blocked, reacquire on wake.  The
        # release must precede the park: this thread may run timer actions
        # inline while parked, and they take locks as the kernel.  A
        # SimLock's hold is set aside whole, however deep; an OS lock (a
        # message queue's) is held once.
        lock = self._lock
        depth = lock._depth if lock.__class__ is SimLock else None
        if depth is None:
            lock.release()
        else:
            lock._owner, lock._depth = None, 0
        try:
            kernel._park(proc)
        finally:
            if depth is None:
                lock.acquire()
            elif depth:
                lock.acquire()          # raises if another took it meanwhile
                lock._depth = depth
        if handle is not None:
            handle.cancelled = True     # EventHandle.cancel, minus a frame
        return waiter.notified

    def _expire(self, waiter: _Waiter) -> None:
        if not waiter.woken:            # else a notify got there first
            waiter.woken = True
            if waiter in self._waiters:
                self._waiters.remove(waiter)
            self._kernel._wake(waiter.proc)

    def notify(self, n: int = 1) -> None:
        """Wake up to ``n`` waiters at the current virtual time."""
        waiters = self._waiters
        while waiters and n > 0:
            waiter = waiters.popleft()
            if waiter.woken:
                continue
            waiter.woken = waiter.notified = True
            self._kernel.call_later(0.0, waiter.proc._kernel_wake)
            n -= 1

    def notify_all(self) -> None:
        self.notify(len(self._waiters))
