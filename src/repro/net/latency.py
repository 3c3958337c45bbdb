"""Network latency model.

A simple affine model suited to the paper's 100 Mb/s LAN setting:
``delay = base + jitter·U(0,1) + per_kb · size/1024``.  Loss is a fault,
injected by a :class:`~repro.net.network.ChaosProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class LatencyModel:
    base_ms: float = 0.3
    jitter_ms: float = 0.1
    per_kb_ms: float = 0.08
    #: When set, each host's egress is a serial link of this capacity:
    #: concurrent sends from one host queue behind each other.  ``None``
    #: keeps the simple affine model (no contention).
    egress_kb_per_ms: Optional[float] = None

    def transmission_ms(self, size_bytes: int) -> float:
        """Time the egress link is occupied by this message."""
        if self.egress_kb_per_ms is None:
            return 0.0
        return (size_bytes / 1024.0) / self.egress_kb_per_ms

    def delay_ms(self, size_bytes: int, rng: Optional[np.random.Generator] = None) -> float:
        jitter = 0.0
        if self.jitter_ms > 0.0 and rng is not None:
            jitter = self.jitter_ms * float(rng.random())
        return self.base_ms + jitter + self.per_kb_ms * (size_bytes / 1024.0)


#: Zero-latency model for unit tests.
IDEAL = LatencyModel(base_ms=0.0, jitter_ms=0.0, per_kb_ms=0.0)
