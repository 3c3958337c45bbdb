"""UtilizationRecorder against the linear walk it replaced.

``average`` bisects to the step in force at the window start and
``_trim`` cuts the history in one slice.  Steps that ended before the
window contribute nothing to the integral, so on any step function the
results must be ``==`` to the old loop's, and the kept history the same.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.node.cpu import UtilizationRecorder


class _Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


class _LinearRecorder:
    """The recorder as it was: walk every step, pop one at a time."""

    def __init__(self, clock: _Clock, keep_ms: float) -> None:
        self._runtime = clock
        self._keep_ms = keep_ms
        self._steps = [(0.0, 0.0, 0.0)]

    def record(self, total: float, external: float) -> None:
        now = self._runtime.now()
        last_t, last_total, last_ext = self._steps[-1]
        if last_t == now:
            self._steps[-1] = (now, total, external)
        elif (total, external) != (last_total, last_ext):
            self._steps.append((now, total, external))
        cutoff = now - self._keep_ms
        while len(self._steps) > 2 and self._steps[1][0] <= cutoff:
            self._steps.pop(0)

    def average(self, window_ms: float, external: bool = False) -> float:
        now = self._runtime.now()
        start = max(0.0, now - window_ms)
        if now <= start:
            _, total, ext = self._steps[-1]
            return ext if external else total
        area = 0.0
        for i, (t, total, ext) in enumerate(self._steps):
            t_next = self._steps[i + 1][0] if i + 1 < len(self._steps) else now
            lo, hi = max(t, start), min(t_next, now)
            if hi > lo:
                area += (ext if external else total) * (hi - lo)
        return area / (now - start)


KEEP_MS = UtilizationRecorder.KEEP_MS
loads = st.sampled_from([0.0, 12.5, 33.3, 40.0, 60.0, 87.5, 100.0])
events = st.lists(
    st.tuples(
        # time step: short ones, and ones a sizeable part of the kept
        # history, so the history is trimmed
        st.one_of(st.just(0.0), st.floats(0.01, 400.0),
                  st.floats(KEEP_MS / 8, KEEP_MS * 1.2)),
        loads, loads,                                      # total, external
        st.one_of(st.floats(0.0, 3_000.0),                 # query window
                  st.floats(0.0, KEEP_MS * 1.2)),
        st.booleans(),                                     # external?
    ),
    max_size=80,
)


@settings(max_examples=300)
@given(events=events)
def test_bisected_average_and_trim_equal_the_linear_walk(events):
    clock = _Clock()
    fast = UtilizationRecorder(clock)
    slow = _LinearRecorder(clock, KEEP_MS)
    for dt, total, ext, window, external in events:
        clock.t += dt
        fast.record(total, ext)
        slow.record(total, ext)
        assert fast.history() == slow._steps
        assert fast.average(window, external) == slow.average(window, external)
        assert fast.average(window, not external) == slow.average(window, not external)
