"""The CPU model on real threads: charges and load changes race freely.

Under the cooperative kernel nothing interleaves between blocking
points; here charges, a load source and observers run on OS threads.
The model's totals are kept under its lock and a charge decides to park
under that same lock, so however the threads interleave every charge
finishes, a mid-charge load change stretches the running ones, and once
all are done the totals are back to the background load alone.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.node.cpu import CpuModel
from repro.runtime import ThreadedRuntime


@pytest.fixture()
def rtt():
    runtime = ThreadedRuntime()
    yield runtime
    runtime.shutdown()


def test_concurrent_charges_and_load_changes_settle(rtt):
    cpu = CpuModel(rtt, speed_mhz=800.0)
    elapsed = []

    def charge():
        for _ in range(4):
            elapsed.append(cpu.execute(15.0))

    def load():
        for level in (50.0, 0.0, 80.0, 20.0):
            rtt.sleep(10.0)
            cpu.set_background("user", level)
            cpu.average_external(50.0)
        cpu.clear_background("user")

    threads = [threading.Thread(target=charge) for _ in range(3)]
    threads.append(threading.Thread(target=load))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave as finely as the GIL allows
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(elapsed) == 12 and cpu._tasks == []
    # Three charges share the CPU: none ran faster than alone.
    assert min(elapsed) >= 15.0 * 0.9
    assert cpu.busy_ms >= 12 * 15.0 * 0.9
    assert (cpu.total_percent(), cpu.external_percent(), cpu._parked) == (0, 0, 0)
    history = cpu.recorder.history()
    assert [t for t, _, _ in history] == sorted(t for t, _, _ in history)


def test_a_starved_charge_resumes_when_the_load_clears(rtt):
    cpu = CpuModel(rtt, speed_mhz=800.0)
    cpu.set_background("hog", 100.0)
    rtt.call_later(30.0, lambda: cpu.clear_background("hog"))
    elapsed = cpu.execute(10.0)
    assert elapsed >= 30.0
    assert cpu.busy_ms >= 10.0 * 0.9
