"""Table 2: classification of the evaluated applications.

The paper classifies the three applications by scalability, CPU needs,
memory requirements and task dependency.  Here the classification is
*measured*: speedup curves from the scalability experiment, CPU cost from
the task cost model, memory from actual serialized task/result sizes, and
task dependency from the application's structure.

Like the paper's Table 2, it summarises the §5.1 experiments: given the
Fig 6–8 sweeps it grades from their rows, and only when called alone
does it run its own ``[1, max]``-worker sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.apps.options import OptionPricingApplication
from repro.apps.prefetch import PrefetchApplication
from repro.core.application import Application
from repro.experiments.calibration import (
    APP_FACTORIES,
    CLUSTER_FACTORIES,
    MAX_WORKERS,
)
from repro.experiments.scalability import ScalabilityResult, scalability_experiment
from repro.util.serialization import serialized_size

__all__ = ["AppClassification", "classify_applications", "classify_one"]


@dataclass(frozen=True)
class AppClassification:
    app_id: str
    scalability: str          # High / Medium / Low
    speedup_at_max: float
    cpu: str                  # High / Adaptable / Low
    task_cost_ms: float
    memory: str               # High / Low
    payload_bytes: int
    task_dependency: bool

    def as_row(self) -> str:
        return (
            f"{self.app_id:>16} {self.scalability:>12} "
            f"({self.speedup_at_max:>4.1f}x) {self.cpu:>10} "
            f"{self.memory:>7} {'Yes' if self.task_dependency else 'No':>11}"
        )


def _scalability_grade(row, planning_cpu: float, aggregation_cpu: float) -> str:
    """Grade by what bounds the run at the full cluster size.

    * compute-bound (neither master phase dominates the CPU budget) →
      **High**: adding workers keeps helping;
    * planning-bound → **Medium**: the ceiling moves with task
      granularity ("adaptable depending on number of simulations");
    * aggregation-bound → **Low**: serial recomposition caps speedup
      regardless of workers (the paper's pre-fetching verdict).
    """
    compute_wall = row.max_worker_ms
    master_cpu = max(planning_cpu, aggregation_cpu)
    if master_cpu < 0.5 * compute_wall:
        return "High"
    return "Medium" if planning_cpu >= aggregation_cpu else "Low"


def _cpu_grade(app: Application, task_cost: float) -> str:
    if isinstance(app, OptionPricingApplication):
        # "Adaptable depending on number of simulations"
        return "Adaptable"
    return "High" if task_cost >= 2000.0 else "Low"


def _check_sweep(app_id: str, sweep: ScalabilityResult) -> None:
    """A supplied sweep must span 1 → the testbed's full size."""
    max_workers = MAX_WORKERS[app_id]
    if sweep.app_id != app_id:
        raise ValueError(f"sweep is for {sweep.app_id!r}, not {app_id!r}")
    if not sweep.rows or sweep.rows[0].workers != 1:
        raise ValueError(f"{app_id} sweep must start at 1 worker")
    if sweep.rows[-1].workers != max_workers:
        raise ValueError(
            f"{app_id} sweep must end at {max_workers} workers, "
            f"not {sweep.rows[-1].workers}")


def classify_one(
    app_id: str,
    sweep: Optional[ScalabilityResult] = None,
) -> AppClassification:
    """Measure one application's Table 2 row.

    ``sweep`` is an already-run scalability sweep of ``app_id`` (1 to
    ``MAX_WORKERS`` workers) to grade from; without one, a sweep over
    1 and ``MAX_WORKERS`` workers is run here.
    """
    if sweep is None:
        sweep = scalability_experiment(
            APP_FACTORIES[app_id], CLUSTER_FACTORIES[app_id],
            [1, MAX_WORKERS[app_id]])
    else:
        _check_sweep(app_id, sweep)
    _, speedup = sweep.speedups()[-1]

    app = APP_FACTORIES[app_id]()
    tasks = app.plan()
    task_cost = max(app.task_cost_ms(t) for t in tasks)
    planning_cpu = sum(app.planning_cost_ms(t) for t in tasks)
    aggregation_cpu = sum(app.aggregation_cost_ms(t.task_id, None) for t in tasks)
    payload_bytes = max(serialized_size(t.payload) for t in tasks)
    # Results count too: the ray tracer returns "relatively large" arrays.
    sample_result = app.execute(tasks[0].payload)
    payload_bytes = max(payload_bytes, serialized_size(sample_result))

    return AppClassification(
        app_id=app_id,
        scalability=_scalability_grade(sweep.rows[-1], planning_cpu, aggregation_cpu),
        speedup_at_max=speedup,
        cpu=_cpu_grade(app, task_cost),
        task_cost_ms=task_cost,
        memory="High" if payload_bytes >= 32_768 else "Low",
        payload_bytes=payload_bytes,
        task_dependency=isinstance(app, PrefetchApplication),
    )


def classify_applications(
    sweeps: Optional[Mapping[str, ScalabilityResult]] = None,
) -> list[AppClassification]:
    """Measured Table 2 for all three applications, graded from
    ``sweeps[app_id]`` where given (see :func:`classify_one`)."""
    sweeps = sweeps or {}
    return [classify_one(app_id, sweep=sweeps.get(app_id))
            for app_id in APP_FACTORIES]


def format_table(rows: list[AppClassification]) -> str:
    header = (
        f"{'application':>16} {'scalability':>12} {'':>7} {'CPU':>10} "
        f"{'memory':>7} {'task dep.':>11}"
    )
    return "\n".join(["Table 2 — application classification (measured)",
                      header, "-" * len(header)] + [r.as_row() for r in rows])
