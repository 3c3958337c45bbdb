"""Named, reproducible random-number streams.

Every stochastic component (load generators, network jitter, Monte Carlo
tasks) draws from its own named stream so that adding a component never
perturbs the draws of another — a standard variance-reduction / determinism
idiom in discrete-event simulation.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The same (seed, name) pair always yields an identically seeded
        generator, independent of creation order.
        """
        gen = self._cache.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, child_seed]))
            self._cache[name] = gen
        return gen
