"""The pre-fetch cache: bounded LRU keyed by URL."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

__all__ = ["PrefetchCache"]


class PrefetchCache:
    """LRU cache holding pre-fetched pages "for faster access"."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def put(self, url: str) -> None:
        if url in self._entries:
            self._entries.move_to_end(url)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[url] = True

    def get(self, url: str) -> Optional[Any]:
        """Look up a page; records hit/miss statistics."""
        if url in self._entries:
            self.hits += 1
            self._entries.move_to_end(url)
            return self._entries[url]
        self.misses += 1
        return None

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
