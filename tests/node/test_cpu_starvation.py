"""Who starves: the CPU, never a charge's own small demand.

A charge parks until the load eases only while the CPU would give it
less than 0.5 % whatever it asked for — its fair slice of what the
background leaves and the ``min_share_percent`` floor are both below
0.5.  A charge that asks for less than 0.5 % of an idle CPU runs at the
rate it asked for; one that asks for nothing with work to do is refused.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.node.cpu import CpuModel
from tests.conftest import run_in_sim


@pytest.mark.parametrize("demand", [0.4, 0.01])
def test_a_small_demand_on_an_idle_cpu_runs_at_that_rate(rt, demand):
    cpu = CpuModel(rt, speed_mhz=800.0)

    def proc():
        return cpu.execute(10.0, demand_percent=demand)

    assert run_in_sim(rt, proc) == pytest.approx(10.0 * 100.0 / demand)
    assert cpu.busy_ms == pytest.approx(10.0 * 100.0 / demand)


def test_the_floor_runs_a_small_demand_under_saturating_load(rt):
    cpu = CpuModel(rt, speed_mhz=800.0, min_share_percent=5.0)
    cpu.set_background("hog", 100.0)

    def proc():
        return cpu.execute(2.0, demand_percent=0.4)

    assert run_in_sim(rt, proc) == pytest.approx(500.0)


def test_a_floor_below_half_a_percent_still_starves(rt):
    cpu = CpuModel(rt, speed_mhz=800.0, min_share_percent=0.3)
    cpu.set_background("hog", 100.0)
    result = {}

    def releaser():
        rt.sleep(300.0)
        cpu.clear_background("hog")

    def task():
        result["elapsed"] = cpu.execute(100.0)

    rt.spawn(releaser, name="releaser")
    rt.spawn(task, name="task")
    rt.kernel.run()
    assert result["elapsed"] == pytest.approx(400.0)


@pytest.mark.parametrize("demand", [0.0, -5.0])
def test_no_demand_with_work_to_do_is_refused(rt, demand):
    cpu = CpuModel(rt, speed_mhz=800.0)

    def proc():
        with pytest.raises(SimulationError):
            cpu.execute(10.0, demand_percent=demand)
        return cpu.execute(0.0, demand_percent=demand), cpu.total_percent()

    assert run_in_sim(rt, proc) == (0.0, 0)
