"""Experiment 3: dynamic worker behaviour under varying load (§5.2.3).

Three runs per application: 0 %, 25 % and 50 % of the workers loaded
(the saturating load simulator runs on them throughout).  Measured:

* **Maximum Worker Time** — max worker computation time;
* **Maximum Master Overhead** — max instantaneous per-task planning/
  aggregation time at the master (expected ~constant across runs);
* **Task Planning and Aggregation Time** — total master phase time;
* **Total Parallel Time** — whole-application time at the master.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.application import Application
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import Cluster
from repro.node.loadgen import LoadSimulator2
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams

__all__ = ["DynamicsRow", "DynamicsResult", "dynamics_experiment",
           "LOADED_FRACTIONS"]


@dataclass(frozen=True)
class DynamicsRow:
    loaded_fraction: float
    loaded_workers: int
    max_worker_ms: float
    max_master_overhead_ms: float
    planning_plus_aggregation_ms: float
    total_parallel_ms: float


@dataclass
class DynamicsResult:
    app_id: str
    workers: int
    rows: list[DynamicsRow] = field(default_factory=list)

    def format_table(self) -> str:
        header = (
            f"{'loaded':>8} {'max worker (ms)':>16} {'max master ovh (ms)':>20} "
            f"{'plan+agg (ms)':>14} {'total parallel (ms)':>20}"
        )
        lines = [
            f"Dynamic worker behaviour — {self.app_id} ({self.workers} workers)",
            header,
            "-" * len(header),
        ]
        for row in self.rows:
            lines.append(
                f"{row.loaded_fraction:>7.0%} {row.max_worker_ms:>16.0f} "
                f"{row.max_master_overhead_ms:>20.1f} "
                f"{row.planning_plus_aggregation_ms:>14.0f} "
                f"{row.total_parallel_ms:>20.0f}"
            )
        return "\n".join(lines)


#: "the load simulator used to simulate high CPU loads [is] run on 25%
#: and 50% of available workers", beside the unloaded run.
LOADED_FRACTIONS = (0.0, 0.25, 0.5)


def dynamics_experiment(
    app_factory: Callable[[], Application],
    cluster_factory: Callable[..., Cluster],
    workers: int = 4,
) -> DynamicsResult:
    """Run the application with each of :data:`LOADED_FRACTIONS` of the
    workers kept busy."""
    app_id = app_factory().app_id
    result = DynamicsResult(app_id=app_id, workers=workers)

    for fraction in LOADED_FRACTIONS:
        n_loaded = math.floor(workers * fraction + 1e-9)

        def body(runtime: SimulatedRuntime, n_loaded=n_loaded, fraction=fraction):
            cluster = cluster_factory(
                runtime, workers=workers, streams=RandomStreams(0)
            )
            framework = AdaptiveClusterFramework(
                runtime, cluster, app_factory(),
                FrameworkConfig(poll_interval_ms=500.0,
                                compute_real=False),
            )
            # "the load simulator used to simulate high CPU loads [is] run
            # on 25% and 50% of available workers".
            for node in cluster.workers[:n_loaded]:
                LoadSimulator2(runtime, node).start()
            framework.start()
            report = framework.run()
            row = DynamicsRow(
                loaded_fraction=fraction,
                loaded_workers=n_loaded,
                max_worker_ms=framework.max_worker_time_ms(),
                max_master_overhead_ms=report.max_task_overhead_ms,
                planning_plus_aggregation_ms=report.planning_plus_aggregation_ms,
                total_parallel_ms=report.parallel_ms,
            )
            framework.shutdown()
            return row

        result.rows.append(run_simulation(body))
    return result
