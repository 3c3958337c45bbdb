"""CpuModel against the processor-sharing model it replaced.

The charge path keeps running totals, records a step only through one
call per change, notifies only when a charge is parked, and re-plans in
a loop that reads the clock once per slice.  None of that may move a
single float or event: the old model is copied here as the reference
(its recorder too, whose trim ran on every record), and on any mix of
speeds, demands, concurrent charges, mid-charge load
changes and aborts both must agree ``==`` on every charge's elapsed time
and completion, ``busy_ms``, the utilization history and the kernel's
event count — before and after shutdown kills the charges still parked.

Demands stay at or above 0.5 %: below it the old model starved a charge
on its own small demand, the defect the new starvation rule fixes
(``test_cpu_starvation.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.node.cpu import CpuModel
from repro.runtime import SimulatedRuntime

_time = itemgetter(0)


class _RefRecorder:
    """The recorder as it was: trim on every record."""

    def __init__(self, runtime, keep_ms=600_000.0):
        self._runtime = runtime
        self._keep_ms = keep_ms
        self._steps = [(0.0, 0.0, 0.0)]

    def record(self, total, external):
        now = self._runtime.now()
        last_t, last_total, last_ext = self._steps[-1]
        if last_t == now:
            self._steps[-1] = (now, total, external)
        elif (total, external) != (last_total, last_ext):
            self._steps.append((now, total, external))
        self._trim(now)

    def _trim(self, now):
        cutoff = now - self._keep_ms
        steps = self._steps
        if len(steps) > 2 and steps[1][0] <= cutoff:
            keep_from = bisect_right(steps, cutoff, lo=1, key=_time) - 1
            del steps[:min(keep_from, len(steps) - 2)]

    def history(self):
        return list(self._steps)


class _RefCpuModel:
    """The CPU model as it was: re-sum per query, notify on every change."""

    def __init__(self, runtime, speed_mhz, ref_mhz=800.0, min_share_percent=0.0):
        if speed_mhz <= 0:
            raise SimulationError(f"speed must be positive: {speed_mhz}")
        self.runtime = runtime
        self.speed_mhz = speed_mhz
        self.ref_mhz = ref_mhz
        self.min_share_percent = min_share_percent
        self.recorder = _RefRecorder(runtime)
        self._background = {}
        self._tasks = []
        self._change = runtime.condition()
        self.busy_ms = 0.0

    def set_background(self, name, percent):
        self._background[name] = max(0.0, min(100.0, percent))
        self._on_change()

    def clear_background(self, name):
        if self._background.pop(name, None) is not None:
            self._on_change()

    def background_percent(self):
        return min(100.0, sum(self._background.values()))

    def _on_change(self):
        self._record()
        with self._change:
            self._change.notify_all()

    def _share_of(self, demand):
        if not self._tasks:
            return 0.0
        available = max(0.0, 100.0 - self.background_percent())
        share = min(demand, available / len(self._tasks))
        if self.min_share_percent > 0.0:
            share = max(share, min(self.min_share_percent, demand))
        return share

    def foreign_percent(self):
        return sum(self._share_of(demand) for demand in self._tasks)

    def total_percent(self):
        return min(100.0, self.background_percent() + self.foreign_percent())

    def external_percent(self):
        return self.background_percent()

    def _record(self):
        self.recorder.record(self.total_percent(), self.external_percent())

    def execute_interruptible(self, work_ref_ms, demand_percent=100.0,
                              abort_check=None):
        if work_ref_ms < 0:
            raise SimulationError(f"negative work: {work_ref_ms}")
        remaining = work_ref_ms * (self.ref_mhz / self.speed_mhz)
        started = self.runtime.now()
        demand = max(0.0, min(100.0, demand_percent))
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
                    break
        finally:
            self._tasks.remove(demand)
            self._on_change()
        return self.runtime.now() - started, completed


# Few distinct delays, so charges, load changes and completions collide
# at one instant (where FIFO order and no-op timer events show).
delays = st.sampled_from([0.0, 0.0, 5.0, 12.5, 40.0, 100.0, 333.3])
works = st.one_of(st.sampled_from([0.0, 10.0, 20.0, 100.0]),
                  st.floats(0.0, 400.0))
demands = st.one_of(st.just(100.0), st.floats(0.5, 100.0))
levels = st.one_of(st.sampled_from([0.0, 30.0, 50.0, 99.6, 100.0]),
                   st.floats(0.0, 120.0))
# (delay before it, work, demand, abort when external load reaches this)
charges = st.tuples(delays, works, demands,
                    st.one_of(st.none(), st.sampled_from([40.0, 90.0])))
# (delay before it, source, level; None clears the source)
changes = st.tuples(delays, st.sampled_from(["a", "b"]),
                    st.one_of(st.none(), levels))


def _run(model, speed, processes, loads):
    """Run the scenario on a fresh kernel: what each charge returned, and
    the model's observable state while the kernel idles and after it
    shuts down."""
    runtime = SimulatedRuntime()
    kernel = runtime.kernel
    cpu = model(runtime, speed)
    results = []

    def charger(index, plan):
        def run():
            for n, (delay, work, demand, limit) in enumerate(plan):
                runtime.sleep(delay)
                check = (None if limit is None
                         else lambda: cpu.external_percent() >= limit)
                results.append(((index, n),
                                cpu.execute_interruptible(work, demand, check),
                                runtime.now()))
        return run

    def loader():
        for delay, name, level in loads:
            runtime.sleep(delay)
            if level is None:
                cpu.clear_background(name)
            else:
                cpu.set_background(name, level)

    try:
        kernel.spawn(loader, name="loader")
        for index, plan in enumerate(processes):
            kernel.spawn(charger(index, plan), name=f"charger-{index}")
        kernel.run_until_idle()
        idle = (sorted(results), cpu.busy_ms, cpu.recorder.history(),
                kernel.events, kernel.now(), cpu.total_percent(),
                cpu.external_percent())
    finally:
        runtime.shutdown()
    return idle, (cpu.busy_ms, cpu.recorder.history(), kernel.now())


@settings(max_examples=300, deadline=None)
@given(speed=st.one_of(st.sampled_from([300.0, 800.0, 1600.0]),
                       st.floats(50.0, 3_000.0)),
       processes=st.lists(st.lists(charges, min_size=1, max_size=3),
                          min_size=1, max_size=3),
       loads=st.lists(changes, max_size=6))
def test_charges_equal_the_old_model(speed, processes, loads):
    assert (_run(CpuModel, speed, processes, loads)
            == _run(_RefCpuModel, speed, processes, loads))
