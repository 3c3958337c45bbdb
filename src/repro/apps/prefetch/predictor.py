"""The rank-driven prefetcher (the application logic around the ranks).

"For each web page requested … the page's URL is scanned to see if it
belongs to a web page cluster.  If it does, the links contained in the
page to other pages on the local server are parsed out", the ranks of the
linked pages are computed, and "the important pages are then pre-fetched
into the cache for faster access."
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.prefetch.cache import PrefetchCache
from repro.apps.prefetch.webgraph import WebPageCluster

__all__ = ["PageRankPrefetcher"]


class PageRankPrefetcher:
    """Prefetches the highest-ranked pages linked from each request."""

    def __init__(
        self,
        cluster: WebPageCluster,
        ranks: np.ndarray,
        cache: Optional[PrefetchCache] = None,
        top_k: int = 3,
    ) -> None:
        if len(ranks) != len(cluster):
            raise ValueError("rank vector size must match the cluster")
        self.cluster = cluster
        self.ranks = np.asarray(ranks, dtype=float)
        self.cache = cache if cache is not None else PrefetchCache()
        self.top_k = top_k
        self.requests = 0
        self.prefetches = 0

    def handle_request(self, url: str) -> bool:
        """Serve a request; returns True on a cache hit.

        After serving, prefetch the top-k ranked pages this page links to.
        """
        self.requests += 1
        hit = self.cache.get(url) is not None
        if self.cluster.by_url(url) is None:
            return hit  # outside the cluster: nothing to prefetch
        self.cache.put(url)
        for target in self.predicted_next(url):
            if target not in self.cache:
                self.cache.put(target)
                self.prefetches += 1
        return hit

    def predicted_next(self, url: str) -> list[str]:
        """The pages this prefetcher would fetch after ``url``."""
        page = self.cluster.by_url(url)
        if page is None:
            return []
        ranked = sorted(page.links, key=lambda pid: self.ranks[pid], reverse=True)
        return [self.cluster.page(pid).url for pid in ranked[: self.top_k]]
