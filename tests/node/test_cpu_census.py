"""What one CPU charge costs the simulator, counted exactly.

Every modelled cost — the master's planning and aggregation, a worker's
compute, class loading on Start — is one ``CpuModel.execute``.  A warm
charge on an otherwise idle CPU is one completion timer: 1 kernel event,
no OS switch, and O(1) bookkeeping, which keeps its Python and C calls
(counted with ``sys.setprofile``) at most ``MAX_CALLS``.  A load change
during a charge wakes it exactly once, in one zero-delay event, however
many sources change at that instant; it re-plans there on one new timer.
"""

from __future__ import annotations

import sys

import pytest

from repro.node.cpu import CpuModel
from tests.conftest import run_in_sim

#: Calls per warm uncontended charge (the re-summing model made 105).
MAX_CALLS = 35


def _count_calls(fn):
    """Python and C calls ``fn()`` makes on this thread, and its result."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls - 1, result        # setprofile(None) is a c_call too


def test_one_warm_uncontended_charge_is_one_timer(rt):
    cpu = CpuModel(rt, speed_mhz=800.0)
    kernel = rt.kernel

    def proc():
        cpu.execute(20.0)           # warm: the first charge at t=0
        before = (kernel.events, kernel.switches)
        calls, elapsed = _count_calls(lambda: cpu.execute(20.0))
        return (calls, elapsed, kernel.events - before[0],
                kernel.switches - before[1])

    calls, elapsed, events, switches = run_in_sim(rt, proc)
    assert (elapsed, events, switches) == (20.0, 1, 0)
    assert calls <= MAX_CALLS
    assert cpu.busy_ms == 40.0


def test_a_load_change_wakes_a_running_charge_once(rt):
    kernel = rt.kernel
    wakes = []
    wake = kernel._wake

    def counting_wake(proc):
        wakes.append((kernel.now(), proc.name))
        wake(proc)

    kernel._wake = counting_wake    # before the spawn binds it
    cpu = CpuModel(rt, speed_mhz=800.0)

    def change():
        cpu.set_background("a", 25.0)
        cpu.set_background("b", 25.0)   # same instant: no second wake

    def proc():
        rt.call_later(500.0, change)
        before = kernel.events
        elapsed = cpu.execute(1000.0)
        return elapsed, kernel.events - before

    # 500 ms at full speed, the other 500 ref-ms at half: 1500 ms.  Events:
    # the change, the charge's zero-delay wake, its re-planned timer.
    assert run_in_sim(rt, proc) == (1500.0, 3)
    assert wakes == [(0.0, "test-root"), (500.0, "test-root"),
                     (1500.0, "test-root")]
    assert cpu.recorder.history() == [(0.0, 100.0, 0.0), (500.0, 100.0, 50.0),
                                      (1500.0, 50.0, 50.0)]


@pytest.mark.parametrize("charges", [1, 3])
def test_a_change_with_nobody_parked_notifies_nobody(rt, charges):
    cpu = CpuModel(rt, speed_mhz=800.0)
    notified = []
    cpu._change.notify_all = lambda: notified.append(rt.now())

    def proc():
        for _ in range(charges):
            cpu.execute(10.0)
        cpu.set_background("a", 30.0)
        cpu.clear_background("a")

    run_in_sim(rt, proc)
    assert notified == []
