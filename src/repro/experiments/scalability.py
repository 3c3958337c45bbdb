"""Experiment 1: scalability analysis (Figs 6, 7, 8).

For each worker count, run the application through the framework on a
fresh simulated cluster and measure the paper's four quantities:

* **Max Worker Time** — max over workers of (first task access → last
  result written);
* **Task Planning Time** — the master's task-planning phase;
* **Task Aggregation Time** — the master's result-collection phase
  (expected to follow max worker time);
* **Parallel Time** — whole application, start to finish, at the master.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.application import Application, ClassLoadProfile, Task
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.net.latency import LatencyModel
from repro.node.cluster import Cluster
from repro.node.machine import FAST_PC
from repro.runtime.base import Runtime
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams

__all__ = ["ScalabilityRow", "ScalabilityResult", "scalability_experiment",
           "EgressBoundStrips", "ShardThroughputRow",
           "sharded_throughput_experiment", "shard_scaling_experiment",
           "format_shard_table"]


@dataclass(frozen=True)
class ScalabilityRow:
    workers: int
    max_worker_ms: float
    parallel_ms: float
    planning_ms: float
    aggregation_ms: float

    @property
    def speedup_base(self) -> float:
        """parallel_ms; speedup is computed against the 1-worker row."""
        return self.parallel_ms


@dataclass
class ScalabilityResult:
    app_id: str
    rows: list[ScalabilityRow] = field(default_factory=list)

    def speedups(self) -> list[tuple[int, float]]:
        base = self.rows[0].parallel_ms
        return [(r.workers, base / r.parallel_ms) for r in self.rows]

    def best_worker_count(self) -> int:
        return min(self.rows, key=lambda r: r.parallel_ms).workers

    def format_table(self) -> str:
        header = (
            f"{'workers':>8} {'max worker (ms)':>16} {'parallel (ms)':>14} "
            f"{'planning (ms)':>14} {'aggregation (ms)':>17}"
        )
        lines = [f"Scalability — {self.app_id}", header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.workers:>8d} {row.max_worker_ms:>16.0f} "
                f"{row.parallel_ms:>14.0f} {row.planning_ms:>14.0f} "
                f"{row.aggregation_ms:>17.0f}"
            )
        return "\n".join(lines)


def run_framework_once(
    runtime: SimulatedRuntime,
    cluster: Cluster,
    app: Application,
    config: Optional[FrameworkConfig] = None,
):
    """Start the framework, run the master to completion, tear down.

    Returns ``(report, framework)``; intended to run inside a simulated
    process (see :func:`repro.experiments.harness.run_simulation`).
    """
    framework = AdaptiveClusterFramework(runtime, cluster, app, config)
    framework.start()
    report = framework.run()
    framework.shutdown()
    return report, framework


def scalability_experiment(
    app_factory: Callable[[], Application],
    cluster_factory: Callable[..., Cluster],
    worker_counts: list[int],
) -> ScalabilityResult:
    """Sweep the worker count; one isolated simulation per point."""
    app_id = app_factory().app_id
    result = ScalabilityResult(app_id=app_id)
    # Real results are identical at every sweep point (same app), so skip
    # re-computing them: the sweep measures time, not values.
    config = FrameworkConfig(compute_real=False)

    for workers in worker_counts:

        def body(runtime: SimulatedRuntime, workers=workers):
            cluster = cluster_factory(
                runtime, workers=workers, streams=RandomStreams(0)
            )
            report, framework = run_framework_once(
                runtime, cluster, app_factory(), config
            )
            return ScalabilityRow(
                workers=workers,
                max_worker_ms=framework.max_worker_time_ms(),
                parallel_ms=report.parallel_ms,
                planning_ms=report.planning_ms,
                aggregation_ms=report.aggregation_ms,
            )

        result.rows.append(run_simulation(body))
    return result


# -- shard scaling: where partitioning actually buys throughput ---------------


class EgressBoundStrips(Application):
    """A raytrace-shaped job whose bottleneck is the space host's uplink.

    ``TASKS`` tiny tasks, fat results (one rendered strip is
    ``RESULT_KB`` KiB).  With one space, every result-drain reply leaves
    a single host, and that link's egress serialization bounds the job;
    sharding spreads the result entries — and therefore the drain
    traffic — over N hosts.  This is the workload class the sharded
    space is *for*: compute-bound jobs are already embarrassingly
    parallel without it.
    """

    app_id = "egress-strips"
    TASKS = 256
    RESULT_KB = 64

    def plan(self) -> list[Task]:
        return [Task(task_id=i, payload=i) for i in range(self.TASKS)]

    def execute(self, payload: Any) -> Any:
        # A deterministic "pixel strip": content varies by strip index so
        # results cannot be accidentally deduplicated anywhere.
        return bytes([payload % 256]) * (self.RESULT_KB * 1024)

    def aggregate(self, results: dict[int, Any]) -> Any:
        return sum(len(v) for v in results.values())

    def task_cost_ms(self, task: Task) -> float:
        return 2.0

    def planning_cost_ms(self, task: Task) -> float:
        return 0.05

    def aggregation_cost_ms(self, task_id: int, result: Any) -> float:
        return 0.05

    def classload_profile(self) -> ClassLoadProfile:
        return ClassLoadProfile(work_ref_ms=50.0, demand_percent=80.0,
                                bundle_bytes=20_000)


@dataclass(frozen=True)
class ShardThroughputRow:
    shards: int
    parallel_ms: float
    tasks_per_s: float


#: The modelled link: ~12.5 KB/ms ≈ 100 Mb/s Ethernet, the paper's LAN.
_SHARD_BENCH_LATENCY = dict(base_ms=0.3, jitter_ms=0.0, per_kb_ms=0.02,
                            egress_kb_per_ms=12.5)
#: The sweep's deployment: 16 workers, each prefetching 8 tasks.
_SHARD_BENCH_WORKERS = 16
_SHARD_BENCH_PREFETCH = 8


def sharded_throughput_experiment(shards: int) -> ShardThroughputRow:
    """E2e task throughput of the egress-bound job at one shard count.

    Measured in *virtual* time (tasks per simulated second), so the
    number is deterministic for a given seed and safe to gate on.  Every
    sweep point uses ``shard_placement="dedicated"`` — even the 1-shard
    run goes through the router to a shard served on its own machine —
    so the comparison isolates partitioning, not client machinery or
    server co-location.
    """

    def body(runtime: SimulatedRuntime) -> ShardThroughputRow:
        cluster = Cluster(runtime, master_spec=FAST_PC,
                          latency=LatencyModel(**_SHARD_BENCH_LATENCY),
                          streams=RandomStreams(0))
        cluster.add_workers(_SHARD_BENCH_WORKERS, FAST_PC)
        # One server machine per shard, off the compute nodes (the paper
        # ran its JavaSpaces server the same way) — shard egress must not
        # queue behind a co-located worker's result uploads.
        cluster.add_space_hosts(shards, FAST_PC)
        prefetch = _SHARD_BENCH_PREFETCH
        config = FrameworkConfig(
            monitoring=False,
            use_jini=False,
            compute_real=True,
            worker_prefetch=prefetch,
            master_seed_batch=max(2 * prefetch, 32),
            master_drain_batch=max(4 * prefetch, 64),
            shards=shards,
            shard_placement="dedicated",
        )
        report, _ = run_framework_once(runtime, cluster,
                                       EgressBoundStrips(), config)
        seconds = report.parallel_ms / 1000.0
        return ShardThroughputRow(
            shards=shards,
            parallel_ms=report.parallel_ms,
            tasks_per_s=EgressBoundStrips.TASKS / seconds,
        )

    return run_simulation(body)


def shard_scaling_experiment(shard_counts: list[int]
                             ) -> list[ShardThroughputRow]:
    """Sweep the shard count (one isolated simulation per point)."""
    return [sharded_throughput_experiment(shards) for shards in shard_counts]


def format_shard_table(rows: list[ShardThroughputRow]) -> str:
    """Render a shard-count sweep as an aligned text table (speedup is
    relative to the first row)."""
    header = f"{'shards':>7} {'parallel (ms)':>14} {'tasks/s':>10} {'speedup':>8}"
    lines = ["Shard scaling — egress-bound strips", header, "-" * len(header)]
    base = rows[0].tasks_per_s if rows else 1.0
    for row in rows:
        lines.append(f"{row.shards:>7d} {row.parallel_ms:>14.0f} "
                     f"{row.tasks_per_s:>10.1f} "
                     f"{row.tasks_per_s / base:>7.2f}x")
    return "\n".join(lines)
