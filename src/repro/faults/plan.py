"""Deterministic chaos plans: *what* fails, *when*, for *how long*.

A :class:`FaultPlan` is pure data — an ordered list of
:class:`FaultEvent` — so the same plan replays the same failure sequence
on every run.  Plans come from two places:

* hand-written, for targeted tests ("crash worker1 at t=2500 ms");
* :meth:`FaultPlan.generate`, which draws a random schedule from a seeded
  :class:`numpy.random.Generator` (use a named
  :class:`~repro.sim.rng.RandomStreams` stream), so whole chaos campaigns
  are replayable from a single integer seed.

The plan is inert until a :class:`~repro.faults.injector.FaultInjector`
arms it on a runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind:
    """The failure modes the injector knows how to apply (see DESIGN.md)."""

    WORKER_CRASH = "worker-crash"      # abrupt node death, no recovery
    LINK_FLAP = "link-flap"            # partition target host, heal later
    SERVER_RESTART = "server-restart"  # space server down, up after duration
    KILL_PRIMARY_SPACE = "kill-primary-space"  # permanent; standby promotes
    KILL_MASTER = "kill-master"        # master process dies; resume from ckpt
    KILL_SHARD = "kill-shard"          # one shard's primary dies (target=index)
    PARTITION = "partition"            # asymmetric cut: target's egress dies
    PAUSE = "pause"                    # process stall: traffic held, not lost
    GRAY_SLOW = "gray-slow"            # gray failure: target N-times slower


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    ``target`` is a hostname for worker/link faults, ignored for server
    faults.  For :data:`~FaultKind.PARTITION` / :data:`~FaultKind.PAUSE` /
    :data:`~FaultKind.GRAY_SLOW` it may also be the symbolic ``"space"``
    (the primary space host) or ``"shard:<i>"`` (shard *i*'s host) — the
    injector resolves those against the deployment.  ``duration_ms`` is
    how long the fault persists before the injector heals it (``None`` =
    permanent, only meaningful for crashes).  ``factor`` is the
    :data:`~FaultKind.GRAY_SLOW` latency multiplier.
    """

    at_ms: float
    kind: str
    target: Optional[str] = None
    duration_ms: Optional[float] = None
    factor: float = 10.0

    def describe(self) -> str:
        parts = [f"t={self.at_ms:.0f}ms {self.kind}"]
        if self.target:
            parts.append(self.target)
        if self.kind == FaultKind.GRAY_SLOW:
            parts.append(f"x{self.factor:g}")
        if self.duration_ms is not None:
            parts.append(f"for {self.duration_ms:.0f}ms")
        return " ".join(parts)

    def to_dict(self) -> dict:
        out: dict = {"at_ms": self.at_ms, "kind": self.kind}
        if self.target is not None:
            out["target"] = self.target
        if self.duration_ms is not None:
            out["duration_ms"] = self.duration_ms
        if self.kind == FaultKind.GRAY_SLOW:
            out["factor"] = self.factor
        return out


@dataclass
class FaultPlan:
    """An ordered, replayable schedule of failures."""

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at_ms)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        self.events.sort(key=lambda e: e.at_ms)
        return self

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def to_dict(self) -> dict:
        """JSON-ready form — stored in postmortem bundles so a dump
        names the exact campaign that was running when it fired."""
        return {"events": [e.to_dict() for e in self.events]}

    #: A generated campaign's span, and the ranges its link flaps and
    #: server restarts last, virtual ms.
    HORIZON_MS = 30_000.0
    FLAP_MS = (500.0, 3_000.0)
    RESTART_MS = (300.0, 1_500.0)

    @classmethod
    def generate(cls, rng, hosts: Sequence[str]) -> "FaultPlan":
        """Draw a random schedule from ``rng`` (a seeded numpy Generator):
        one worker crash, one link flap and one space-server restart.

        Fault times are uniform over ``[0.1, 0.9] * HORIZON_MS`` so the
        run has quiet lead-in and drain phases; targets are drawn
        uniformly from ``hosts``.  Same rng state → same plan, always.
        """
        hosts = list(hosts)

        def when() -> float:
            return float(rng.uniform(0.1 * cls.HORIZON_MS,
                                     0.9 * cls.HORIZON_MS))

        def pick_host() -> Optional[str]:
            if not hosts:
                return None
            return hosts[int(rng.integers(0, len(hosts)))]

        crash = FaultEvent(when(), FaultKind.WORKER_CRASH, target=pick_host())
        flap = FaultEvent(when(), FaultKind.LINK_FLAP, target=pick_host(),
                          duration_ms=float(rng.uniform(*cls.FLAP_MS)))
        restart = FaultEvent(when(), FaultKind.SERVER_RESTART,
                             duration_ms=float(rng.uniform(*cls.RESTART_MS)))
        return cls([crash, flap, restart])
