"""Broadie–Glasserman stochastic-tree estimators.

The method (Broadie & Glasserman 1997) prices American/Bermudan options by
simulating random trees: from each node, ``b`` independent GBM branches
lead to the next exercise date.  Two estimators are computed on the tree:

* the **high** estimator applies dynamic programming directly —
  ``Θ = max(payoff, disc · mean(children))`` — which is biased *high*
  because the same branches decide *and* value continuation;
* the **low** estimator removes that foresight bias with a leave-one-out
  rule: branch ``j``'s continuation decision uses the other ``b−1``
  branches, and its value uses branch ``j`` alone; averaging over ``j``
  gives a *low*-biased estimate.

The true price is bracketed: ``E[low] ≤ price ≤ E[high]`` — the paper's
"first [iteration] obtains a high estimate and the second … a low
estimate".  Everything is vectorized across simulations and tree levels:
level ``k`` holds an array of shape ``(n_sims, b**k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.options.mc import simulate_gbm_steps
from repro.apps.options.model import OptionContract

__all__ = ["BGEstimate", "bg_tree_estimate", "bg_price_interval"]


@dataclass(frozen=True)
class BGEstimate:
    """Aggregatable sufficient statistics of one batch of tree simulations."""

    estimator: str          # "high" | "low"
    n_sims: int
    sum_values: float       # Σ root-node estimates
    sum_squares: float      # Σ root-node estimates²

    @property
    def mean(self) -> float:
        return self.sum_values / self.n_sims

    @property
    def stderr(self) -> float:
        if self.n_sims < 2:
            return float("inf")
        variance = (self.sum_squares - self.sum_values**2 / self.n_sims) / (
            self.n_sims - 1
        )
        return math.sqrt(max(0.0, variance) / self.n_sims)

    def merge(self, other: "BGEstimate") -> "BGEstimate":
        if other.estimator != self.estimator:
            raise ValueError("cannot merge high with low estimates")
        return BGEstimate(
            self.estimator,
            self.n_sims + other.n_sims,
            self.sum_values + other.sum_values,
            self.sum_squares + other.sum_squares,
        )


def _simulate_tree(
    contract: OptionContract,
    n_sims: int,
    branches: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Price levels: ``levels[k]`` has shape ``(n_sims, branches**k)``."""
    d = contract.exercise_dates
    dt = contract.maturity_years / d
    levels = [np.full((n_sims, 1), contract.spot)]
    for _ in range(d):
        prev = levels[-1]
        children = simulate_gbm_steps(prev, contract, dt, rng, branches=branches)
        levels.append(children.reshape(n_sims, -1))
    return levels


def _high_backward(
    contract: OptionContract, levels: list[np.ndarray], branches: int
) -> np.ndarray:
    disc = contract.step_discount()
    theta = contract.payoff(levels[-1])
    for k in range(len(levels) - 2, -1, -1):
        n_sims, width = levels[k].shape
        continuation = disc * theta.reshape(n_sims, width, branches).mean(axis=2)
        exercise = contract.payoff(levels[k])
        if k == 0:
            # The root is not exercisable "now" in the Bermudan convention
            # used here only if t=0 is not an exercise date; Broadie &
            # Glasserman allow immediate exercise, so we keep the max.
            theta = np.maximum(exercise, continuation)
        else:
            theta = np.maximum(exercise, continuation)
    return theta[:, 0]


def _low_backward(
    contract: OptionContract, levels: list[np.ndarray], branches: int
) -> np.ndarray:
    disc = contract.step_discount()
    b = branches
    eta = contract.payoff(levels[-1])
    for k in range(len(levels) - 2, -1, -1):
        n_sims, width = levels[k].shape
        child_vals = disc * eta.reshape(n_sims, width, b)
        exercise = contract.payoff(levels[k])[..., None]        # (n, w, 1)
        total = child_vals.sum(axis=2, keepdims=True)           # (n, w, 1)
        loo_mean = (total - child_vals) / (b - 1)               # leave-one-out
        # Exercise if it beats the continuation estimated WITHOUT branch j;
        # otherwise value continuation WITH branch j alone.
        eta_j = np.where(exercise >= loo_mean, exercise, child_vals)
        eta = eta_j.mean(axis=2)
    return eta[:, 0]


def bg_tree_estimate(
    contract: OptionContract,
    estimator: str,
    n_sims: int,
    branches: int = 5,
    seed: Optional[int] = None,
) -> BGEstimate:
    """Run ``n_sims`` independent tree simulations of one estimator.

    This is exactly one of the paper's MC subtasks ("each MC task consists
    of two iterations, the first one obtains a high estimate and the
    second one obtains a low estimate").
    """
    if estimator not in ("high", "low"):
        raise ValueError(f"estimator must be 'high' or 'low': {estimator}")
    if branches < 2:
        raise ValueError("need at least 2 branches for the low estimator")
    rng = np.random.default_rng(seed if seed is not None else 0)
    levels = _simulate_tree(contract, n_sims, branches, rng)
    if estimator == "high":
        roots = _high_backward(contract, levels, branches)
    else:
        roots = _low_backward(contract, levels, branches)
    return BGEstimate(
        estimator=estimator,
        n_sims=n_sims,
        sum_values=float(roots.sum()),
        sum_squares=float((roots**2).sum()),
    )


#: The normal quantile of a two-sided 95 % confidence interval.
Z_95 = 1.96


def bg_price_interval(high: BGEstimate, low: BGEstimate
                      ) -> tuple[float, float, float]:
    """Point estimate and a conservative 95 % confidence interval.

    Following Broadie–Glasserman: the interval ``[low.mean − z·se_low,
    high.mean + z·se_high]`` covers the true price; the midpoint is the
    point estimate.
    """
    lo = low.mean - Z_95 * low.stderr
    hi = high.mean + Z_95 * high.stderr
    return (low.mean + high.mean) / 2.0, lo, hi
