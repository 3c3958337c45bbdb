"""Distributed PageRank driver: framework rounds until convergence.

The pre-fetch application distributes one power-iteration round per
framework run (25 strip tasks); this driver chains rounds — resolving
the inter-iteration dependency at the master, as the paper describes —
until the rank vector converges or a round budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.prefetch.app import PrefetchApplication
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.node.cluster import Cluster
from repro.runtime.base import Runtime

__all__ = ["DistributedPageRank", "PageRankRun"]


@dataclass
class PageRankRun:
    ranks: np.ndarray
    rounds: int
    converged: bool
    total_parallel_ms: float
    per_round_ms: list[float] = field(default_factory=list)


class DistributedPageRank:
    """Runs PageRank rounds through the adaptive framework."""

    def __init__(
        self,
        runtime: Runtime,
        cluster: Cluster,
        app: PrefetchApplication,
        tol: float = 1e-8,
        max_rounds: int = 60,
    ) -> None:
        self.runtime = runtime
        self.cluster = cluster
        self.app = app
        self.config = FrameworkConfig(poll_interval_ms=500.0)
        self.tol = tol
        self.max_rounds = max_rounds

    def run(self) -> PageRankRun:
        """Iterate to convergence; call from a runtime process."""
        per_round: list[float] = []
        converged = False
        rounds = 0
        for rounds in range(1, self.max_rounds + 1):
            framework = AdaptiveClusterFramework(
                self.runtime, self.cluster, self.app, self.config
            )
            framework.start()
            report = framework.run()
            framework.shutdown()
            per_round.append(report.parallel_ms)
            new_x = report.solution
            delta = float(np.abs(new_x - self.app.x).sum())
            self.app.advance(new_x)
            if delta < self.tol:
                converged = True
                break
        return PageRankRun(
            ranks=self.app.x,
            rounds=rounds,
            converged=converged,
            total_parallel_ms=sum(per_round),
            per_round_ms=per_round,
        )
