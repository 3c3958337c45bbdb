"""Who starves: the CPU, never a charge's own small demand.

A charge parks until the load eases only while the CPU would give it
less than 0.5 % whatever it asked for — its fair slice of what the
background leaves is below 0.5.  A charge that asks for less than 0.5 %
of an idle CPU runs at the rate it asked for; one that asks for nothing
with work to do is refused.
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


@pytest.mark.parametrize("demand", [0.0, -5.0])
def test_no_demand_with_work_to_do_is_refused(rt, demand):
    cpu = CpuModel(rt, speed_mhz=800.0)

    def proc():
        with pytest.raises(SimulationError):
            cpu.execute(10.0, demand_percent=demand)
        return cpu.execute(0.0, demand_percent=demand), cpu.total_percent()

    assert run_in_sim(rt, proc) == (0.0, 0)
