"""Virtual-time cooperative-thread simulation kernel.

Design
------
Each simulated process runs on a real OS thread, but exactly one thread
holds the *baton* (the right to run) at a time.  A process runs until it
blocks (``sleep`` / condition ``wait``) or finishes; **that same thread**
then drains the event queue itself: it pops events in ``(time, FIFO)``
order, runs plain timer actions inline (with ``_current = None``, so they
look exactly like the old kernel-thread callbacks), and on a wake event
either simply returns (the woken process is itself: no OS switch) or
releases the successor's baton lock and parks on its own (one OS switch).
Because control only transfers at explicit blocking points, code between
blocking points is atomic with respect to other simulated processes — no
data races, deterministic schedules.  When the loop must stop (queue dry,
``until`` passed, ``max_events``, an action raised, a process failed,
shutdown) the baton goes home to the thread inside ``run``/
``run_until_idle``, which raises whatever there is to raise.

Processes are bound to kernel-scoped *carrier* threads.  A finishing
process returns its carrier to the idle list before it dispatches, so
``spawn`` starts a thread only when every carrier is busy and a
same-instant spawn reuses the finishing thread without any switch.

The scheduler is a calendar queue: a min-heap of *distinct* timestamps plus
a FIFO deque per timestamp.  Simulated workloads reuse timestamps heavily
(quantized network latencies, fixed-period sleeps), so the O(log n) heap
operation is paid once per distinct time while every individual event is an
O(1) deque append/popleft.  FIFO bucket order reproduces exactly the old
``(time, seq)`` total order, so schedules stay deterministic.  Process
failures are reported through an O(1) flag (``_failed``) set by the failing
process itself, so fail-fast never walks the process table.

Time is measured in **milliseconds** of virtual time (matching the paper's
plots).

Shutdown
--------
``shutdown()`` resumes every still-blocked process with :class:`SimKilled`
(a ``BaseException``) so worker loops unwind their stacks, then releases
and joins every carrier thread.  Experiments always call ``shutdown()`` (or
use the kernel as a context manager) so pytest never leaks threads.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
import traceback
from typing import Any, Callable, Optional

from repro.errors import DeadlockError, SimKilled, SimulationError

__all__ = ["SimKernel", "SimProcess"]


class EventHandle:
    """Queue payload and cancellation handle for one scheduled action.

    Ordering lives in the calendar queue (time bucket + FIFO position), so
    this object is never compared — which keeps it a single allocation per
    ``call_later`` (the scheduler's hottest constructor).
    """

    __slots__ = ("action", "cancelled")

    def __init__(self, action: Callable[[], None]) -> None:
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SimProcess:
    """A simulated process: a function plus the carrier thread it runs on.

    ``_baton`` is its carrier's lock, used as a binary semaphore: the
    thread parks by acquiring it and whoever dispatches the process's wake
    event releases it.  Raw locks rather than :class:`threading.Event`,
    whose ``wait`` allocates a fresh waiter lock per call.  Strict
    alternation (one release per park; only the baton holder releases)
    keeps each lock toggling safely.
    """

    def __init__(self, kernel: "SimKernel", fn: Callable[[], Any], name: str,
                 baton: threading.Lock) -> None:
        self.kernel = kernel
        self.name = name
        self.finished = False
        self.killed = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.error_tb: str = ""
        self._fn: Optional[Callable[[], Any]] = fn
        self._baton = baton
        # Reusable wake action: a process has at most one pending sleep,
        # so one handle per process replaces a lambda + EventHandle
        # allocation on every sleep() (the scheduler's hottest path).
        self._wake_handle = EventHandle(self._kernel_wake)

    def _kernel_wake(self) -> None:
        self.kernel._wake(self)

    def _run(self) -> None:
        """Body of the process, on its carrier thread."""
        try:
            if self.killed:
                raise SimKilled()
            self.result = self._fn()  # type: ignore[misc]
        except SimKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - recorded and re-raised by run()
            self.error = exc
            self.error_tb = traceback.format_exc()
            self.kernel._failed.append(self)
        finally:
            self.finished = True
            self._fn = None     # a closure may pin arbitrarily large results


class _Carrier:
    """Kernel-scoped OS thread that runs one process after another."""

    def __init__(self, kernel: "SimKernel") -> None:
        self.kernel = kernel
        self.proc: Optional[SimProcess] = None
        self.baton = threading.Lock()
        self.baton.acquire()        # starts "unsignalled"
        self.thread = threading.Thread(
            target=self._loop, name=f"sim-carrier-{len(kernel._carriers)}",
            daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        kernel, baton = self.kernel, self.baton
        baton.acquire()             # first tenant's first slice
        while (proc := self.proc) is not None:      # None: shutdown
            proc._run()
            # Retire before dispatching, so an action run below that
            # spawns at this instant rebinds this very thread: no switch.
            self.proc = None
            del kernel.processes[proc]
            kernel._idle.append(self)
            kernel._dispatch(baton)


class _Home(threading.Event):
    """Where the baton rests while nothing is simulated: the caller of
    ``run*()``/``shutdown()`` parks here.  Speaks the baton-lock protocol
    but is level-triggered, so a park cut short by ``KeyboardInterrupt``
    can be repeated: the baton is home again before the interrupt
    propagates, and nobody tears down around a still-running process.
    """

    def __init__(self, kernel: "SimKernel") -> None:
        super().__init__()
        self.kernel = kernel

    release = threading.Event.set

    def acquire(self) -> None:
        try:
            self.wait()
        except BaseException:
            self.kernel._shutdown = True    # carriers stop at their next block
            self.wait()
            raise


class SimKernel:
    """Deterministic discrete-event kernel with thread-backed processes."""

    def __init__(self) -> None:
        # Calendar queue: min-heap of distinct times + FIFO bucket per time.
        # A time is in ``_times`` iff its bucket exists in ``_buckets``.
        self._times: list[float] = []
        self._buckets: dict[float, deque[EventHandle]] = {}
        self._bucket: Optional[deque[EventHandle]] = None   # being drained
        self._now = 0.0
        self._current: Optional[SimProcess] = None
        self._next: Optional[SimProcess] = None     # set by _wake
        #: Live (unfinished) processes, in spawn order.
        self.processes: dict[SimProcess, None] = {}
        self._failed: deque[SimProcess] = deque()   # set by the failing process
        self._carriers: list[_Carrier] = []
        self._idle: list[_Carrier] = []
        self._home = _Home(self)
        # The running run*() call's limits, shared by every dispatching thread.
        self._until: Optional[float] = None
        self._budget = self._max_events = 0
        self._error: Optional[BaseException] = None    # raised by an action
        self._running = False
        self._shutdown = False
        #: Baton hand-offs to another thread (one OS switch each); an
        #: event that wakes nobody, or its own thread, costs none.
        self.switches = 0
        #: Optional observer called once per distinct virtual time, right
        #: before that time's bucket drains: ``on_advance(time_ms)``.
        #: Lets telemetry sample the clock without scheduling events of
        #: its own, so attaching it cannot change the event order.  Must
        #: not call back into the kernel scheduler.
        self.on_advance: Optional[Callable[[float], None]] = None

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "SimKernel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- clock ----------------------------------------------------------------

    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    # -- scheduling -------------------------------------------------------------

    def call_later(self, delay_ms: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to run, outside any process, after ``delay_ms``."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay: {delay_ms}")
        handle = EventHandle(action)
        time_ms = self._now + delay_ms
        bucket = self._buckets.get(time_ms)
        if bucket is None:
            self._buckets[time_ms] = bucket = deque()
            heapq.heappush(self._times, time_ms)
        bucket.append(handle)
        return handle

    def spawn(self, fn: Callable[[], Any], name: str = "proc") -> SimProcess:
        """Create a process; it starts at the current virtual time."""
        if self._shutdown:
            raise SimulationError("kernel already shut down")
        if self._idle:
            carrier = self._idle.pop()
        else:
            carrier = _Carrier(self)
            self._carriers.append(carrier)
        carrier.proc = proc = SimProcess(self, fn, name, carrier.baton)
        self.processes[proc] = None
        # Through call_later, not the reusable sleep handle: the start is
        # an event like any other to whoever counts events at that boundary.
        self.call_later(0.0, proc._kernel_wake)
        return proc

    # -- process-side primitives -------------------------------------------------

    def current(self) -> SimProcess:
        proc = self._current
        if proc is None:
            raise SimulationError("not inside a simulated process")
        return proc

    def sleep(self, delay_ms: float) -> None:
        """Block the current process for ``delay_ms`` of virtual time."""
        proc = self.current()
        # Inline call_later with the process's reusable wake handle: a
        # process has exactly one pending sleep at a time, so the handle
        # can't be double-queued, and sleep wakes are never cancelled.
        time_ms = self._now + (delay_ms if delay_ms > 0.0 else 0.0)
        bucket = self._buckets.get(time_ms)
        if bucket is None:
            self._buckets[time_ms] = bucket = deque()
            heapq.heappush(self._times, time_ms)
        bucket.append(proc._wake_handle)
        self._park(proc)

    def _park(self, proc: SimProcess) -> None:
        """Block the calling process ``proc`` until an event wakes it."""
        if not proc.killed:     # unwinding under shutdown: never park again
            self._dispatch(proc._baton)
        if proc.killed:
            raise SimKilled()

    def _wake(self, proc: SimProcess) -> None:
        """Tail call of an event action: ``proc`` runs next.

        Only records the successor; the dispatch loop switches to it as
        soon as the action returns.
        """
        if not proc.finished:
            self._next = proc

    # -- dispatch ----------------------------------------------------------------

    def _drain(self) -> Optional[SimProcess]:
        """Run events in ``(time, FIFO)`` order until one wakes a process.

        Returns that process, or ``None`` when the queue is dry, the next
        event lies beyond ``until``, a process failed or shutdown began.
        """
        if self._failed or self._shutdown:
            return None
        times = self._times
        buckets = self._buckets
        bucket = self._bucket       # a bucket left half-drained by a switch
        while True:
            if bucket is None:
                if not times:
                    return None
                time_ms = times[0]
                if self._until is not None and time_ms > self._until:
                    return None
                # Actions may append same-time events mid-drain; the inner
                # loop picks them up in FIFO order.  Later times open new
                # buckets, so this bucket stays the queue minimum until dry.
                self._bucket = bucket = buckets[time_ms]
                self._now = time_ms
                if self.on_advance is not None:
                    self.on_advance(time_ms)
            while bucket:
                event = bucket.popleft()
                if event.cancelled:
                    continue
                self._budget -= 1
                if self._budget < 0:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}")
                event.action()
                proc = self._next
                if proc is not None:
                    self._next = None
                    return proc
            del buckets[heapq.heappop(times)]
            self._bucket = bucket = None

    def _dispatch(self, baton: threading.Lock) -> None:
        """Give up the calling thread's turn; return when it is next.

        Called by whichever thread blocks (a process in ``sleep``/``wait``,
        a carrier whose process finished, the caller of ``run*``), holding
        the baton.  Drains the queue right here, then passes the baton to
        the woken process — or home, on every loop exit — and parks.
        """
        self._current = proc = None
        try:
            proc = self._drain()
        except BaseException as exc:  # noqa: BLE001 - re-raised by run*()
            self._error = exc
        if proc is None:
            self._bucket = None     # a later run*() re-announces the time
            target = self._home
        else:
            self._current = proc
            target = proc._baton
        if target is not baton:
            self.switches += 1
            target.release()
            baton.acquire()

    # -- main loop --------------------------------------------------------------

    def _drive(self, until: Optional[float], max_events: int) -> None:
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._until = until
        self._budget = self._max_events = max_events
        self._home.clear()
        try:
            self._dispatch(self._home)
            if self._error is not None:
                error, self._error = self._error, None
                raise error
            while self._failed:
                proc = self._failed.popleft()
                if proc.error is not None:
                    error, proc.error = proc.error, None
                    raise SimulationError(
                        f"process {proc.name!r} failed: {error!r}\n{proc.error_tb}"
                    ) from error
        finally:
            self._running = False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Process events in order until the queue drains or ``until`` is passed.

        Returns the virtual time at exit.  Raises the first error recorded
        by any process (fail fast), and :class:`DeadlockError` if processes
        remain blocked with an empty queue — unless the kernel was shut down.
        """
        self._drive(until, max_events)
        if until is not None:
            self._now = max(self._now, until)
        elif self.processes and not self._shutdown:
            blocked = [p.name for p in self.processes]
            raise DeadlockError(
                f"no pending events but processes are blocked: {blocked}"
            )
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Run until no events remain, tolerating still-blocked processes.

        Useful for experiments whose server loops wait forever by design.
        ``max_events`` guards against runaway event storms, as in ``run``.
        """
        self._drive(None, max_events)
        return self._now

    # -- teardown ----------------------------------------------------------------

    def shutdown(self) -> None:
        """Kill all blocked processes, then release and join every carrier."""
        self._shutdown = True
        for proc in list(self.processes):
            proc.killed = True
            self._current = proc
            self._home.clear()
            proc._baton.release()   # unwinds, retires, hands the baton home
            self._home.acquire()
        carriers, self._carriers = self._carriers, []
        for carrier in carriers:
            carrier.baton.release()
        for carrier in carriers:
            carrier.thread.join(5.0)
        self._idle.clear()
        self._times.clear()
        self._buckets.clear()
