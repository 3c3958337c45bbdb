#!/usr/bin/env python
"""PageRank-based web page pre-fetching (§5.1.3), end to end.

1. Builds a 500-page synthetic web cluster.
2. Computes its PageRank vector *through the framework*: each power-
   iteration round is distributed as 25 strip tasks (500×500 matrix,
   strips of 20), with the inter-iteration dependency resolved at the
   master between rounds.
3. Serves a simulated browsing session through the web-server model,
   with and without rank-based pre-fetching, and reports the cache hit
   rate and the mean access time of each.

Run:  python examples/web_prefetch.py
"""

from __future__ import annotations

import numpy as np

from repro.apps.prefetch import (
    DistributedPageRank,
    PrefetchApplication,
    WebServerModel,
    generate_cluster,
    pagerank_power,
    simulate_browsing_session,
)
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small

ROUNDS = 12


def distributed_pagerank(app: PrefetchApplication) -> tuple[np.ndarray, float, int]:
    """Run up to ``ROUNDS`` framework rounds; returns (ranks, ms, rounds)."""

    def body(runtime):
        cluster = testbed_small(runtime)
        driver = DistributedPageRank(runtime, cluster, app,
                                     tol=1e-7, max_rounds=ROUNDS)
        run = driver.run()
        return run.ranks, run.total_parallel_ms, run.rounds

    return run_simulation(body)


def main() -> None:
    web = generate_cluster(n_pages=500, seed=0)
    app = PrefetchApplication(cluster=web)

    print(f"web cluster: {len(web)} pages at {web.domain}")
    print(f"distributing PageRank rounds "
          f"({app.n_strips} strip tasks each) over 5 workers…")
    ranks, total_ms, rounds = distributed_pagerank(app)

    reference, iterations = pagerank_power(app.matrix, tol=1e-12)
    drift = float(np.abs(ranks - reference).sum())
    print(f"virtual time for {rounds} rounds: {total_ms:,.0f} ms")
    print(f"L1 distance to converged PageRank ({iterations} iters): {drift:.2e}")

    top = np.argsort(ranks)[::-1][:5]
    print("top-ranked pages:",
          [web.page(int(p)).url.rsplit('/', 1)[-1] for p in top])

    plain = simulate_browsing_session(WebServerModel(web), ranks)
    prefetched = simulate_browsing_session(WebServerModel(web, ranks), ranks)
    print(f"browsing session ({plain.requests} requests): "
          f"{plain.hit_rate:.0%} cache hits, {plain.mean_ms:.1f} ms mean "
          f"access without pre-fetching → {prefetched.hit_rate:.0%}, "
          f"{prefetched.mean_ms:.1f} ms with rank-based pre-fetching")


if __name__ == "__main__":
    main()
