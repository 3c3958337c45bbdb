"""Node memory model tests."""

from __future__ import annotations

import pytest

from repro.errors import OutOfMemoryError
from repro.node.memory import MemoryModel


def test_allocate_and_free():
    memory = MemoryModel(total_mb=64)
    memory.allocate("classes", 300)
    assert memory.used_kb() == 300
    assert memory.available_kb() == 64 * 1024 - 300
    assert memory.holds("classes")
    memory.free("classes")
    assert memory.used_kb() == 0


def test_over_allocation_raises():
    memory = MemoryModel(total_mb=1)
    with pytest.raises(OutOfMemoryError):
        memory.allocate("huge", 2048)
    assert memory.used_kb() == 0  # failed allocation leaves no residue


def test_reallocation_replaces_not_accumulates():
    memory = MemoryModel(total_mb=1)
    memory.allocate("x", 600)
    memory.allocate("x", 700)  # would overflow if summed
    assert memory.used_kb() == 700


def test_peak_tracking():
    memory = MemoryModel(total_mb=64)
    memory.allocate("a", 1000)
    memory.allocate("b", 500)
    memory.free("a")
    assert memory.peak_kb == 1500
    assert memory.used_kb() == 500


def test_invalid_arguments():
    with pytest.raises(ValueError):
        MemoryModel(total_mb=0)
    memory = MemoryModel(total_mb=1)
    with pytest.raises(ValueError):
        memory.allocate("x", -1)


def test_free_unknown_is_noop():
    MemoryModel(total_mb=1).free("ghost")


def test_slow_pc_master_cannot_host_jini(rt):
    """The paper's deployment constraint, enforced."""
    from repro.core import AdaptiveClusterFramework
    from repro.errors import ConfigurationError
    from repro.node.cluster import Cluster
    from repro.node.machine import SLOW_PC
    from tests.core.toyapp import SumOfSquares

    cluster = Cluster(rt, master_spec=SLOW_PC)  # 64 MB master
    cluster.add_worker(SLOW_PC)
    framework = AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=2))
    with pytest.raises(ConfigurationError, match="cannot host"):
        framework.start()
    # Not half-started: a later run() raises the same error again instead
    # of running a master with no servers or workers.
    with pytest.raises(ConfigurationError, match="cannot host"):
        framework.run()


def test_fast_pc_master_fits_service_stack(rt):
    from repro.core import AdaptiveClusterFramework
    from repro.node.cluster import testbed_small
    from tests.core.toyapp import SumOfSquares

    cluster = testbed_small(rt, workers=1)
    framework = AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=2))

    def experiment():
        framework.start()
        used = cluster.master.memory.used_kb()
        framework.shutdown()
        return used

    proc = rt.kernel.spawn(experiment, name="experiment")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.result >= (48 + 64) * 1024


def test_worker_memory_tracks_class_loading(rt):
    from repro.core import AdaptiveClusterFramework, FrameworkConfig, Signal
    from repro.node.cluster import testbed_small
    from tests.core.toyapp import SumOfSquares

    cluster = testbed_small(rt, workers=1)
    # Unmonitored: a rule-base would adopt the Stop below and Start the
    # idle worker again, reloading the classes this test sees dropped.
    framework = AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=4),
                                         FrameworkConfig(monitoring=False))
    node = cluster.workers[0]

    def experiment():
        framework.start()
        framework.run()
        loaded = node.memory.holds("worker-classes")
        framework.worker_hosts[0].handle_signal(Signal.STOP)
        rt.sleep(1000.0)
        unloaded = not node.memory.holds("worker-classes")
        framework.shutdown()
        return loaded, unloaded

    proc = rt.kernel.spawn(experiment, name="experiment")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    assert proc.result == (True, True)
