"""Processor-sharing CPU model with utilization accounting.

Work is measured in **reference milliseconds**: the time the job would
take on an unloaded reference machine (800 MHz, the paper's fast PCs).
A 300 MHz worker therefore takes ``800/300 ≈ 2.67×`` longer, and any
background load shrinks the share available to the foreign task further:

    progress rate = min(demand, 100 − background) / 100   (per local ms)

Background load changes take effect immediately — ``execute`` re-plans its
completion time whenever a load source changes, so a load simulator
kicking in mid-task stretches exactly the remaining work.

Utilization is recorded as a step function ``(t, total %, external %)``;
windowed averages integrate it.  *External* load excludes the framework's
own task — the quantity the inference engine thresholds act on (the
paper's workers survive their own 100 % compute spikes, see Fig. 10).

Every modelled cost passes through :meth:`CpuModel.execute`, so a charge
is kept to one completion timer and O(1) bookkeeping: the totals are
re-derived only when a load source or the set of running charges
changes, and a change wakes parked charges only when there are any.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.runtime.base import Runtime

__all__ = ["CpuModel", "UtilizationRecorder"]

#: Reference machine speed for work units (the paper's 800 MHz PIII).
REFERENCE_MHZ = 800.0

#: A charge the CPU would give less than this share (%) is starved.
STARVED_PERCENT = 0.5

_time = itemgetter(0)


class UtilizationRecorder:
    """Step-function record of (total, external) CPU utilization."""

    def __init__(self, runtime: Runtime, keep_ms: float = 600_000.0) -> None:
        self._runtime = runtime
        self._keep_ms = keep_ms
        self._steps: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)]

    def record(self, total: float, external: float) -> None:
        self.record_at(self._runtime.now(), total, external)

    def record_at(self, now: float, total: float, external: float) -> None:
        """Record the utilization in force from ``now`` (the clock's time)."""
        steps = self._steps
        last = steps[-1]
        if last[0] == now:
            # The record that stepped at ``now`` already trimmed for it.
            steps[-1] = (now, total, external)
            return
        if last[1] != total or last[2] != external:
            steps.append((now, total, external))
        # Keep one sample at/before the cutoff so integration stays exact.
        cutoff = now - self._keep_ms
        if len(steps) > 2 and steps[1][0] <= cutoff:
            keep_from = bisect_right(steps, cutoff, lo=1, key=_time) - 1
            del steps[:min(keep_from, len(steps) - 2)]

    def history(self) -> list[tuple[float, float, float]]:
        return list(self._steps)

    def average(self, window_ms: float, external: bool = False) -> float:
        """Mean utilization over the trailing ``window_ms``."""
        now = self._runtime.now()
        start = max(0.0, now - window_ms)
        if now <= start:
            _, total, ext = self._steps[-1]
            return ext if external else total
        steps = self._steps
        # Steps that ended by the window start add nothing: begin at the
        # one in force at ``start``.
        first = max(0, bisect_right(steps, start, key=_time) - 1)
        area = 0.0
        for i in range(first, len(steps)):
            t, total, ext = steps[i]
            t_next = steps[i + 1][0] if i + 1 < len(steps) else now
            lo, hi = max(t, start), min(t_next, now)
            if hi > lo:
                area += (ext if external else total) * (hi - lo)
        return area / (now - start)


class CpuModel:
    """One node's CPU: background sources plus the running foreign tasks.

    The totals are derived state, brought up to date by :meth:`_changed`
    whenever a background source or the set of running charges changes:
    queries read them, nothing re-sums per query.  One real lock guards
    them, so threads of a :class:`~repro.runtime.ThreadedRuntime` can
    charge and change load concurrently; under the cooperative kernel it
    is never contended.  A charge parks on a condition over that lock,
    and a change notifies it only if some charge is parked — decided
    under the lock, so a charge about to park cannot miss its re-plan.
    """

    def __init__(
        self,
        runtime: Runtime,
        speed_mhz: float,
        ref_mhz: float = REFERENCE_MHZ,
        min_share_percent: float = 0.0,
    ) -> None:
        """``min_share_percent`` > 0 models OS time-slicing fairness: a
        foreign task always gets at least that CPU share even under a
        saturating background load (ablation knob; 0 = pure processor
        sharing, where 100 % background fully starves the task)."""
        if speed_mhz <= 0:
            raise SimulationError(f"speed must be positive: {speed_mhz}")
        self.runtime = runtime
        self.speed_mhz = speed_mhz
        self.ref_mhz = ref_mhz
        self.min_share_percent = min_share_percent
        self.recorder = UtilizationRecorder(runtime)
        self._now = runtime.now
        self._background: dict[str, float] = {}
        self._tasks: list[float] = []  # demand (%) of each running foreign task
        # Derived by _changed; the sums start as sum()'s int 0, as they were.
        self._background_total: float = 0   # min(100, Σ background sources)
        self._foreign: float = 0            # Σ the running tasks' shares
        self._total: float = 0              # min(100, background + foreign)
        self._per_task = 100.0              # fair slice of what is left
        self._lock = threading.Lock()
        self._change = runtime.condition(self._lock)
        self._parked = 0                    # charges waiting on _change
        self.busy_ms = 0.0  # cumulative foreign task-time (overlap counts per task)

    # -- load sources ------------------------------------------------------------

    def set_background(self, name: str, percent: float) -> None:
        """Set a named background load source to ``percent`` demand."""
        with self._lock:
            self._background[name] = max(0.0, min(100.0, percent))
            self._background_total = min(100.0, sum(self._background.values()))
            self._changed(self._now())

    def clear_background(self, name: str) -> None:
        with self._lock:
            if self._background.pop(name, None) is not None:
                self._background_total = min(100.0,
                                             sum(self._background.values()))
                self._changed(self._now())

    def background_percent(self) -> float:
        return self._background_total

    def _changed(self, now: float) -> None:
        """Re-derive the totals, record them, wake the parked charges.

        O(1) for the usual lone charge; the sum over several charges
        keeps their start order, so its floats are the old ones.
        """
        tasks = self._tasks
        background = self._background_total
        running = len(tasks)
        if not running:
            foreign = 0
        elif running == 1 and self.min_share_percent <= 0.0:
            self._per_task = share = 100.0 - background
            demand = tasks[0]
            foreign = demand if demand <= share else share  # min(), inline
        else:
            self._per_task = (100.0 - background) / running
            foreign = sum(self._share(demand) for demand in tasks)
        self._foreign = foreign
        total = background + foreign
        self._total = total = total if total < 100.0 else 100.0
        self.recorder.record_at(now, total, background)
        if self._parked:
            self._change.notify_all()

    # -- observation ----------------------------------------------------------------

    def _share(self, demand: float) -> float:
        """Fair processor-sharing slice for one running foreign task."""
        share = min(demand, self._per_task)
        if self.min_share_percent > 0.0:
            share = max(share, min(self.min_share_percent, demand))
        return share

    def foreign_percent(self) -> float:
        """Instantaneous share consumed by all foreign tasks together."""
        return self._foreign

    def total_percent(self) -> float:
        return self._total

    def external_percent(self) -> float:
        return self._background_total

    def average_total(self, window_ms: float = 1000.0) -> float:
        self._record()
        return self.recorder.average(window_ms, external=False)

    def average_external(self, window_ms: float = 1000.0) -> float:
        self._record()
        return self.recorder.average(window_ms, external=True)

    def _record(self) -> None:
        with self._lock:
            self.recorder.record(self._total, self._background_total)

    # -- execution ---------------------------------------------------------------------

    def execute(self, work_ref_ms: float, demand_percent: float = 100.0) -> float:
        """Run ``work_ref_ms`` of reference work; returns elapsed local ms.

        Blocks the calling process for the modelled duration, re-planning
        whenever background load changes.  ``demand_percent`` caps how much
        CPU the job asks for (class loading spikes demand less than 100 %).
        """
        elapsed, _completed = self.execute_interruptible(work_ref_ms, demand_percent)
        return elapsed

    def execute_interruptible(
        self,
        work_ref_ms: float,
        demand_percent: float = 100.0,
        abort_check: Optional[Callable[[], bool]] = None,
    ) -> tuple[float, bool]:
        """Like :meth:`execute`, but abortable at load-change points.

        ``abort_check()`` is consulted whenever the background load changes
        (including on starvation); returning True abandons the remaining
        work.  Job-level schedulers use this to model eviction killing an
        in-flight job, losing un-checkpointed progress.  It runs under the
        model's lock: it may read the model's views, but must neither
        block nor change a load source.

        A charge is starved — parked until the load eases — only while
        the CPU would give it less than ``STARVED_PERCENT`` whatever it
        asked for: its fair slice and ``min_share_percent`` are both
        below it.  A small demand of its own never starves it.

        Returns ``(elapsed_local_ms, completed)``.
        """
        if work_ref_ms < 0:
            raise SimulationError(f"negative work: {work_ref_ms}")
        if demand_percent <= 0 and work_ref_ms > 0:
            raise SimulationError(f"no CPU demand for work: {demand_percent}")
        remaining = work_ref_ms * (self.ref_mhz / self.speed_mhz)
        demand = max(0.0, min(100.0, demand_percent))
        floor = self.min_share_percent
        tasks = self._tasks
        change = self._change
        with self._lock:
            started = now = self._now()
            # Multiple foreign tasks share the CPU fairly (each additionally
            # capped by its own demand) — two frameworks' workers, or a
            # master co-located with services, coexist like real processes.
            tasks.append(demand)
            self._changed(now)
            completed = True
            try:
                while remaining > 1e-9:
                    if abort_check is not None and abort_check():
                        completed = False
                        break
                    # One slice: the share and rate it runs at, one timer.
                    per_task = self._per_task
                    if per_task < STARVED_PERCENT and floor < STARVED_PERCENT:
                        # Starved: wait for load/competitors to ease off.
                        rate = timeout = None
                    else:
                        # _share(demand), inline: a call less per slice.
                        share = demand if demand <= per_task else per_task
                        if floor > 0.0:
                            share = max(share, min(floor, demand))
                        rate = share / 100.0
                        timeout = remaining / rate
                    self._parked += 1
                    try:
                        changed = change.wait(timeout)
                    finally:
                        self._parked -= 1
                    slice_start, now = now, self._now()
                    if rate is not None:
                        elapsed = now - slice_start
                        remaining -= elapsed * rate
                        self.busy_ms += elapsed
                        if not changed:
                            break  # the full slice ran: remaining is ~0
            except BaseException:
                now = self._now()   # unwound mid-slice: account at that instant
                raise
            finally:
                tasks.remove(demand)
                self._changed(now)
        return now - started, completed
