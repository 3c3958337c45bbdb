"""Intrusiveness analysis: how many cycles does the framework steal
while the machine's owner is using it?

The paper's thesis is *non-intrusive* cycle stealing: "a local user
should not be able to perceive that local resources are being stolen for
foreign computations."  This experiment measures it directly: a worker
computes tasks while a user-activity window (load simulator 1) is active;
the metric is the CPU share the framework's worker consumed **during**
that window (foreign = total − external, integrated over the window),
with monitoring on versus off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.application import Application
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import Cluster
from repro.node.loadgen import LoadSimulator1
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams

__all__ = ["IntrusivenessResult", "intrusiveness_experiment", "stolen_cpu_ms"]


@dataclass(frozen=True)
class IntrusivenessResult:
    monitoring: bool
    stolen_ms: float          # ∫ foreign CPU over the user-activity window
    window_ms: float
    tasks_done: int

    @property
    def stolen_share(self) -> float:
        """Fraction of the user's window consumed by foreign work."""
        return self.stolen_ms / self.window_ms if self.window_ms else 0.0


def stolen_cpu_ms(
    history: list[tuple[float, float, float]], t0: float, t1: float
) -> float:
    """Integrate foreign CPU (total − external) over [t0, t1].

    ``history`` is the CPU recorder's step function.
    """
    stolen = 0.0
    for i, (t, total, external) in enumerate(history):
        t_next = history[i + 1][0] if i + 1 < len(history) else t1
        lo, hi = max(t, t0), min(t_next, t1)
        if hi > lo:
            stolen += (total - external) / 100.0 * (hi - lo)
    return stolen


#: The user's activity window and the run's end, virtual ms.
USER_WINDOW = (10_000.0, 30_000.0)
END_MS = 36_000.0


def intrusiveness_experiment(
    app_factory: Callable[[], Application],
    cluster_factory: Callable[..., Cluster],
    monitoring: bool,
) -> IntrusivenessResult:
    """One run: a single worker, a user-activity window, monitoring on/off."""

    def body(runtime: SimulatedRuntime) -> IntrusivenessResult:
        cluster = cluster_factory(runtime, workers=1, streams=RandomStreams(0))
        node = cluster.workers[0]
        framework = AdaptiveClusterFramework(
            runtime, cluster, app_factory(),
            FrameworkConfig(monitoring=monitoring,
                            poll_interval_ms=500.0,
                            compute_real=False),
        )
        framework.start()
        if not monitoring:
            framework.start_all_workers()
        runtime.spawn(framework.master.run, name="master-run")

        user = LoadSimulator1(runtime, node, rng=cluster.rng("user"))
        t0, t1 = USER_WINDOW
        runtime.sleep(t0)
        user.start()
        runtime.sleep(t1 - t0)
        user.stop()
        runtime.sleep(END_MS - t1)

        history = node.cpu.recorder.history()
        result = IntrusivenessResult(
            monitoring=monitoring,
            stolen_ms=stolen_cpu_ms(history, t0, t1),
            window_ms=t1 - t0,
            tasks_done=framework.worker_hosts[0].tasks_done,
        )
        framework.master.cancel()
        framework.shutdown()
        return result

    return run_simulation(body)
