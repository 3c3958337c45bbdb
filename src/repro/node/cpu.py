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
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Optional

from repro.errors import SimulationError
from repro.runtime.base import Runtime

__all__ = ["CpuModel", "UtilizationRecorder"]

#: Reference machine speed for work units (the paper's 800 MHz PIII).
REFERENCE_MHZ = 800.0

_time = itemgetter(0)


class UtilizationRecorder:
    """Step-function record of (total, external) CPU utilization."""

    def __init__(self, runtime: Runtime, keep_ms: float = 600_000.0) -> None:
        self._runtime = runtime
        self._keep_ms = keep_ms
        self._steps: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)]

    def record(self, total: float, external: float) -> None:
        now = self._runtime.now()
        last_t, last_total, last_ext = self._steps[-1]
        if last_t == now:
            self._steps[-1] = (now, total, external)
        elif (total, external) != (last_total, last_ext):
            self._steps.append((now, total, external))
        self._trim(now)

    def _trim(self, now: float) -> None:
        cutoff = now - self._keep_ms
        steps = self._steps
        # Keep one sample at/before the cutoff so integration stays exact.
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
    """One node's CPU: background sources plus at most one foreign task."""

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
        self._background: dict[str, float] = {}
        self._tasks: list[float] = []  # demand (%) of each running foreign task
        self._change = runtime.condition()
        self.busy_ms = 0.0  # cumulative foreign task-time (overlap counts per task)

    # -- load sources ------------------------------------------------------------

    def set_background(self, name: str, percent: float) -> None:
        """Set a named background load source to ``percent`` demand."""
        self._background[name] = max(0.0, min(100.0, percent))
        self._on_change()

    def clear_background(self, name: str) -> None:
        if self._background.pop(name, None) is not None:
            self._on_change()

    def background_percent(self) -> float:
        return min(100.0, sum(self._background.values()))

    def _on_change(self) -> None:
        self._record()
        with self._change:
            self._change.notify_all()

    # -- observation ----------------------------------------------------------------

    def _share_of(self, demand: float) -> float:
        """Fair processor-sharing slice for one foreign task right now."""
        if not self._tasks:
            return 0.0
        available = max(0.0, 100.0 - self.background_percent())
        share = min(demand, available / len(self._tasks))
        if self.min_share_percent > 0.0:
            share = max(share, min(self.min_share_percent, demand))
        return share

    def foreign_percent(self) -> float:
        """Instantaneous share consumed by all foreign tasks together."""
        return sum(self._share_of(demand) for demand in self._tasks)

    def total_percent(self) -> float:
        return min(100.0, self.background_percent() + self.foreign_percent())

    def external_percent(self) -> float:
        return self.background_percent()

    def average_total(self, window_ms: float = 1000.0) -> float:
        self._record()
        return self.recorder.average(window_ms, external=False)

    def average_external(self, window_ms: float = 1000.0) -> float:
        self._record()
        return self.recorder.average(window_ms, external=True)

    def _record(self) -> None:
        self.recorder.record(self.total_percent(), self.external_percent())

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
        abort_check: Optional[callable] = None,
    ) -> tuple[float, bool]:
        """Like :meth:`execute`, but abortable at load-change points.

        ``abort_check()`` is consulted whenever the background load changes
        (including on starvation); returning True abandons the remaining
        work.  Job-level schedulers use this to model eviction killing an
        in-flight job, losing un-checkpointed progress.

        Returns ``(elapsed_local_ms, completed)``.
        """
        if work_ref_ms < 0:
            raise SimulationError(f"negative work: {work_ref_ms}")
        remaining = work_ref_ms * (self.ref_mhz / self.speed_mhz)
        started = self.runtime.now()
        demand = max(0.0, min(100.0, demand_percent))
        # Multiple foreign tasks share the CPU fairly (each additionally
        # capped by its own demand) — two frameworks' workers, or a master
        # co-located with services, coexist like real processes would.
        self._tasks.append(demand)
        self._on_change()
        completed = True
        try:
            while remaining > 1e-9:
                if abort_check is not None and abort_check():
                    completed = False
                    break
                share = self._share_of(demand)
                if share < 0.5:
                    # Starved: wait for load/competitors to ease off.
                    with self._change:
                        self._change.wait(timeout=None)
                    continue
                rate = share / 100.0
                duration = remaining / rate
                slice_start = self.runtime.now()
                with self._change:
                    changed = self._change.wait(timeout=duration)
                elapsed = self.runtime.now() - slice_start
                done = elapsed * rate
                remaining -= done
                self.busy_ms += elapsed
                if not changed:
                    break  # the full slice ran: remaining is ~0
        finally:
            self._tasks.remove(demand)
            self._on_change()
        return self.runtime.now() - started, completed
