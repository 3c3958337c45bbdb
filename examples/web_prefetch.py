#!/usr/bin/env python
"""PageRank-based web page pre-fetching (§5.1.3), end to end.

1. Builds a 500-page synthetic web cluster.
2. Computes its PageRank vector *through the framework*: each power-
   iteration round is distributed as 25 strip tasks (500×500 matrix,
   strips of 20), with the inter-iteration dependency resolved at the
   master between rounds.
3. Uses the ranks to drive the pre-fetch cache during a simulated
   browsing session and reports the cache hit rate with and without
   pre-fetching.

Run:  python examples/web_prefetch.py
"""

from __future__ import annotations

import numpy as np

from repro.apps.prefetch import (
    DistributedPageRank,
    PageRankPrefetcher,
    PrefetchApplication,
    PrefetchCache,
    generate_cluster,
    pagerank_power,
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


def browsing_session(cluster, ranks, prefetch: bool) -> float:
    """Simulate a user following mostly-important links; return hit rate."""
    cache = PrefetchCache(capacity=48)
    prefetcher = PageRankPrefetcher(cluster, ranks, cache=cache)
    rng = np.random.default_rng(7)
    url = cluster.page(0).url
    for _ in range(200):
        if prefetch:
            prefetcher.handle_request(url)
        else:       # a plain cache: only what was requested is kept
            cache.get(url)
            cache.put(url)
        page = cluster.by_url(url)
        ranked = sorted(page.links, key=lambda p: ranks[p], reverse=True)
        next_id = ranked[0] if rng.random() < 0.7 else int(rng.choice(page.links))
        url = cluster.page(next_id).url
    return cache.hit_rate


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

    hit_plain = browsing_session(web, ranks, prefetch=False)
    hit_prefetch = browsing_session(web, ranks, prefetch=True)
    print(f"browsing-session cache hit rate: "
          f"{hit_plain:.0%} without pre-fetching → "
          f"{hit_prefetch:.0%} with rank-based pre-fetching")


if __name__ == "__main__":
    main()
