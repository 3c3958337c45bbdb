"""Web-server access-time model.

"The overall objective of this application is to optimize access time
experienced by the web user" — this module closes the loop: a served
request costs ``cache_ms`` on a pre-fetch hit and ``fetch_ms`` on a miss,
and a synthetic rank-following browsing session measures the mean access
time with and without rank-based pre-fetching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.apps.prefetch.cache import PrefetchCache
from repro.apps.prefetch.predictor import PageRankPrefetcher
from repro.apps.prefetch.webgraph import WebPageCluster

__all__ = ["ServerTimings", "WebServerModel", "simulate_browsing_session"]


@dataclass(frozen=True)
class ServerTimings:
    """Per-request costs (ms): a cache hit vs a full backend fetch."""

    cache_ms: float = 3.0
    fetch_ms: float = 90.0


@dataclass
class AccessStats:
    requests: int = 0
    hits: int = 0
    total_ms: float = 0.0
    per_request_ms: list[float] = field(default_factory=list)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.requests if self.requests else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class WebServerModel:
    """Serves requests through (optionally) a rank-driven pre-fetch cache."""

    #: Pages the cache holds, pre-fetched or requested.
    CACHE_CAPACITY = 48

    def __init__(
        self,
        cluster: WebPageCluster,
        ranks: Optional[np.ndarray] = None,
        timings: ServerTimings = ServerTimings(),
    ) -> None:
        self.cluster = cluster
        self.timings = timings
        self.stats = AccessStats()
        if ranks is not None:
            self.prefetcher: Optional[PageRankPrefetcher] = PageRankPrefetcher(
                cluster, ranks,
                cache=PrefetchCache(capacity=self.CACHE_CAPACITY))
        else:
            self.prefetcher = None
            self._plain_cache = PrefetchCache(capacity=self.CACHE_CAPACITY)

    def serve(self, url: str) -> float:
        """Serve one request; returns the user-visible access time (ms)."""
        if self.prefetcher is not None:
            hit = self.prefetcher.handle_request(url)
        else:
            hit = self._plain_cache.get(url) is not None
            self._plain_cache.put(url)
        latency = self.timings.cache_ms if hit else self.timings.fetch_ms
        self.stats.requests += 1
        self.stats.hits += int(hit)
        self.stats.total_ms += latency
        self.stats.per_request_ms.append(latency)
        return latency


#: Requests per browsing session; the next starts on a random page.
NEW_SESSION_EVERY = 25


def simulate_browsing_session(
    server: WebServerModel,
    ranks: np.ndarray,
    n_requests: int = 300,
    follow_rank_probability: float = 0.7,
    seed: int = 7,
) -> AccessStats:
    """A user mostly clicking important links, occasionally starting over.

    The premise of the paper's approach: "if the requested pages link to
    an important page, that page has a higher probability of being the
    next one requested."
    """
    cluster = server.cluster
    rng = np.random.default_rng(seed)
    url = cluster.page(0).url
    for i in range(n_requests):
        server.serve(url)
        if (i + 1) % NEW_SESSION_EVERY == 0:
            url = cluster.page(int(rng.integers(len(cluster)))).url
            continue
        page = cluster.by_url(url)
        ranked = sorted(page.links, key=lambda p: ranks[p], reverse=True)
        if rng.random() < follow_rank_probability:
            next_id = ranked[0]
        else:
            next_id = int(rng.choice(page.links))
        url = cluster.page(next_id).url
    return server.stats
