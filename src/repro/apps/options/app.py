"""Framework adapter for the option-pricing application (paper §5.1.1).

"The number of simulations was set to 10 000.  The problem domain is
divided into 50 tasks, each comprising 100 simulations.  As each MC
simulation consists of two independent iterations, a total of 100
sub-tasks were created" — so ``plan`` emits 100 entries: 50 blocks × the
{high, low} estimator pair, 100 tree simulations each.

Calibration (DESIGN.md §5): per-task planning cost at the master is what
makes Fig. 6 flatten past ~4 workers — the master creates tasks slower
than ≥5 slow workers drain them.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.apps.options.broadie_glasserman import (
    BGEstimate,
    bg_price_interval,
    bg_tree_estimate,
)
from repro.apps.options.model import PAPER_CONTRACT, OptionContract
from repro.core.application import Application, ClassLoadProfile, Task

__all__ = ["OptionPricingApplication"]


class OptionPricingApplication(Application):
    """Parallel Broadie–Glasserman pricing as a bag of 100 subtasks."""

    app_id = "option-pricing"

    #: Branches per node of each Broadie–Glasserman tree.
    BRANCHES = 5
    #: Root of every task's RNG seed.
    SEED = 2001
    #: Calibrated cost model (reference ms, see DESIGN.md §5): a task of
    #: 100 tree simulations, planning one task, aggregating one result.
    TASK_COST = 400.0
    PLANNING_COST = 260.0
    AGGREGATION_COST = 15.0

    def __init__(
        self,
        contract: OptionContract = PAPER_CONTRACT,
        n_simulations: int = 10_000,
        n_blocks: int = 50,
    ) -> None:
        if n_simulations % (2 * n_blocks) != 0:
            raise ValueError("n_simulations must divide evenly into 2·n_blocks subtasks")
        self.contract = contract
        self.n_simulations = n_simulations
        self.n_blocks = n_blocks
        # 10 000 simulations = 50 blocks × {high, low} × 100 tree sims each.
        self.sims_per_block = n_simulations // (2 * n_blocks)

    # -- functional behaviour ------------------------------------------------------

    def plan(self) -> list[Task]:
        tasks = []
        task_id = 0
        for block in range(self.n_blocks):
            for estimator in ("high", "low"):
                tasks.append(
                    Task(
                        task_id=task_id,
                        payload={
                            "estimator": estimator,
                            "n_sims": self.sims_per_block,
                            "seed": self.SEED * 1_000_003 + block * 2
                            + (estimator == "low"),
                        },
                    )
                )
                task_id += 1
        return tasks

    def execute(self, payload: Any) -> BGEstimate:
        return bg_tree_estimate(
            self.contract,
            estimator=payload["estimator"],
            n_sims=payload["n_sims"],
            branches=self.BRANCHES,
            seed=payload["seed"],
        )

    def aggregate(self, results: dict[int, Any]) -> dict[str, float]:
        high: Optional[BGEstimate] = None
        low: Optional[BGEstimate] = None
        for estimate in results.values():
            if estimate is None:
                continue  # compute_real=False runs carry no payloads
            if estimate.estimator == "high":
                high = estimate if high is None else high.merge(estimate)
            else:
                low = estimate if low is None else low.merge(estimate)
        if high is None or low is None:
            return {"price": float("nan"), "ci_low": float("nan"),
                    "ci_high": float("nan"), "high": float("nan"),
                    "low": float("nan")}
        price, ci_low, ci_high = bg_price_interval(high, low)
        return {
            "price": price,
            "ci_low": ci_low,
            "ci_high": ci_high,
            "high": high.mean,
            "low": low.mean,
        }

    # -- cost model --------------------------------------------------------------------

    def task_cost_ms(self, task: Task) -> float:
        return self.TASK_COST * (task.payload["n_sims"] / 100.0)

    def planning_cost_ms(self, task: Task) -> float:
        return self.PLANNING_COST

    def aggregation_cost_ms(self, task_id: int, result: Any) -> float:
        return self.AGGREGATION_COST

    def classload_profile(self) -> ClassLoadProfile:
        # Fig. 9(a): the startup spike reaches ~80 % CPU.
        return ClassLoadProfile(work_ref_ms=900.0, demand_percent=80.0,
                                bundle_bytes=300_000)
