"""Synthetic web-page clusters.

"This scheme targets access to web page clusters, i.e. groups of closely
related pages such as pages of a single company."  The generator builds a
site with a preferential-attachment flavour: early pages (home, section
indexes) accumulate more in-links, giving the rank vector realistic skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["WebPage", "WebPageCluster", "generate_cluster"]


@dataclass
class WebPage:
    """A page in the cluster with its outgoing local links."""

    page_id: int
    url: str
    links: list[int] = field(default_factory=list)


class WebPageCluster:
    """A group of closely related pages on one server."""

    def __init__(self, domain: str, pages: list[WebPage]) -> None:
        self.domain = domain
        self.pages = pages
        self._by_url = {page.url: page for page in pages}

    def __len__(self) -> int:
        return len(self.pages)

    def page(self, page_id: int) -> WebPage:
        return self.pages[page_id]

    def by_url(self, url: str) -> Optional[WebPage]:
        return self._by_url.get(url)

    def contains_url(self, url: str) -> bool:
        """URL-scan step of the algorithm: does it belong to this cluster?"""
        return url in self._by_url


#: The generated site's host name.
DOMAIN = "www.example.com"

#: Mean out-links per generated page (Poisson, at least one).
MEAN_LINKS = 8.0


def generate_cluster(
    n_pages: int = 500,
    seed: int = 0,
) -> WebPageCluster:
    """Generate a synthetic cluster with preferential attachment.

    Every page links somewhere (no dangling pages — matching the paper's
    stochastic-matrix construction, which assumes n successors ≥ 1), so
    a cluster needs at least two pages.
    """
    if n_pages < 2:
        raise ValueError(f"n_pages must be at least 2, got {n_pages}")
    rng = np.random.default_rng(seed)
    pages = [
        WebPage(page_id=i, url=f"http://{DOMAIN}/page{i}.html")
        for i in range(n_pages)
    ]
    # Hierarchy bias: real sites link back to the home page and section
    # indexes, so early page ids attract links ∝ 1/(1+id); accumulated
    # popularity adds the rich-get-richer effect on top.
    hierarchy = 1.0 / (1.0 + np.arange(n_pages))
    popularity = np.ones(n_pages)
    for page in pages:
        k = max(1, int(rng.poisson(MEAN_LINKS)))
        k = min(k, n_pages - 1)
        weights = hierarchy * popularity
        weights[page.page_id] = 0.0  # no self links
        weights /= weights.sum()
        targets = rng.choice(n_pages, size=k, replace=False, p=weights)
        page.links = sorted(int(t) for t in targets)
        popularity[targets] += 1.0
    return WebPageCluster(DOMAIN, pages)
