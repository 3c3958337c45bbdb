"""Arms a :class:`~repro.faults.plan.FaultPlan` on a live deployment.

One runtime process per scheduled event sleeps in virtual time until the
event fires, applies the fault, and — for faults with a duration — sleeps
again and heals it.  Everything runs on the simulation clock, so a chaos
campaign is as deterministic as its plan.

Every injection and heal is recorded as a metrics event
(``fault-injected`` / ``fault-healed``) so recovery latencies can be read
straight out of the trace next to ``proxy-reconnected`` /
``worker-recovered`` / ``dead-letter`` events.
"""

from __future__ import annotations

from typing import Optional

from repro.core.metrics import Metrics
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.net.network import Network
from repro.runtime.base import Runtime
from repro.util.log import get_logger

__all__ = ["FaultInjector"]

_log = get_logger("faults")


class FaultInjector:
    """Applies a fault plan to workers, links, and the space server."""

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        plan: FaultPlan,
        metrics: Metrics,
        worker_hosts: Optional[dict[str, object]] = None,
        space_server: Optional[object] = None,
        primary_killer=None,
        master_killer=None,
        shard_killer=None,
        space_hosts: Optional[list[str]] = None,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.plan = plan
        self.metrics = metrics
        self.worker_hosts = worker_hosts or {}
        self.space_server = space_server
        #: Coordinator faults: callables (framework hooks) rather than raw
        #: objects, because "the master" is a different object after each
        #: restart and the primary kill must also be observable.
        self.primary_killer = primary_killer
        self.master_killer = master_killer
        #: Sharded deployments: callable taking the shard index to crash.
        self.shard_killer = shard_killer
        #: Hostname per shard (index 0 doubles as "the" space host), used
        #: to resolve the symbolic ``space`` / ``shard:<i>`` targets of
        #: partition/pause/gray-slow events.
        self.space_hosts = list(space_hosts) if space_hosts else []
        self.injected = 0
        self.healed = 0
        self._armed = False
        self._disarmed = False

    @classmethod
    def for_framework(cls, framework, plan: FaultPlan) -> "FaultInjector":
        """Wire an injector to a started AdaptiveClusterFramework."""
        hosts = {h.node.hostname: h for h in framework.worker_hosts}
        return cls(
            framework.runtime, framework.cluster.network, plan,
            framework.metrics, worker_hosts=hosts,
            space_server=framework.space_server,
            primary_killer=framework.kill_primary_space,
            master_killer=framework.kill_master,
            shard_killer=framework.kill_shard,
            space_hosts=framework.shard_hosts,
        )

    def arm(self) -> None:
        """Schedule every event in the plan (idempotent)."""
        if self._armed:
            return
        self._armed = True
        for index, event in enumerate(self.plan):
            self.runtime.spawn(
                lambda e=event: self._run_event(e),
                name=f"fault:{index}:{event.kind}",
            )

    def disarm(self) -> None:
        """Suppress any event that has not fired yet and heal every
        outstanding network fault (the run is over; a framework being
        shut down must not stay partitioned, paused or slowed — held
        deliveries in particular would otherwise leak past the run)."""
        self._disarmed = True
        self.network.resume_all()
        self.network.heal_all_partitions()
        self.network.heal_all_slow()

    def resolve_target(self, target: Optional[str]) -> Optional[str]:
        """Map a symbolic fault target to a hostname.

        ``space`` → the (first) space host; ``shard:<i>`` → shard *i*'s
        host (a shard the deployment does not have raises ValueError);
        anything else is taken as a literal hostname.
        """
        if target is None:
            return None
        if target == "space":
            return self.space_hosts[0] if self.space_hosts else None
        if target.startswith("shard:"):
            index = int(target.split(":", 1)[1])
            if not self.space_hosts:
                return None
            if index >= len(self.space_hosts):
                raise ValueError(f"{target} is out of range: the deployment "
                                 f"has {len(self.space_hosts)} shard(s)")
            return self.space_hosts[index]
        return target

    # -- internals ------------------------------------------------------------------

    def _run_event(self, event: FaultEvent) -> None:
        delay = event.at_ms - self.runtime.now()
        if delay > 0:
            self.runtime.sleep(delay)
        if self._disarmed:
            return
        self._apply(event)
        if event.duration_ms is not None and event.kind != FaultKind.WORKER_CRASH:
            self.runtime.sleep(event.duration_ms)
            if not self._disarmed:
                self._heal(event)

    def _record(self, phase: str, event: FaultEvent) -> None:
        self.metrics.event(
            phase, kind=event.kind, target=event.target,
            duration_ms=event.duration_ms,
        )
        _log.info("t=%.0fms %s: %s", self.runtime.now(), phase,
                  event.describe())

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == FaultKind.WORKER_CRASH:
            host = self.worker_hosts.get(event.target)
            if host is None:
                return
            host.crash()
        elif kind == FaultKind.LINK_FLAP:
            if event.target is None:
                return
            self.network.isolate(event.target)
        elif kind == FaultKind.SERVER_RESTART:
            if self.space_server is None:
                return
            self.space_server.crash()
        elif kind == FaultKind.KILL_PRIMARY_SPACE:
            if self.primary_killer is None:
                return
            self.primary_killer()
        elif kind == FaultKind.KILL_MASTER:
            if self.master_killer is None:
                return
            self.master_killer()
        elif kind == FaultKind.KILL_SHARD:
            if self.shard_killer is None or event.target is None:
                return
            self.shard_killer(int(event.target))
        elif kind == FaultKind.PARTITION:
            host = self.resolve_target(event.target)
            if host is None:
                return
            # Asymmetric cut: the target's egress vanishes while ingress
            # still flows — the shape that manufactures split-brain (a
            # primary that hears requests but whose acks and heartbeat
            # replies never arrive).  Loopback is exempt, as on a real
            # host whose NIC dies.
            self.network.partition(host, "*")
        elif kind == FaultKind.PAUSE:
            host = self.resolve_target(event.target)
            if host is None:
                return
            self.network.pause(host)
        elif kind == FaultKind.GRAY_SLOW:
            host = self.resolve_target(event.target)
            if host is None:
                return
            self.network.slow(host, event.factor)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.injected += 1
        self._record("fault-injected", event)

    def _heal(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == FaultKind.LINK_FLAP:
            self.network.heal(event.target)
        elif kind == FaultKind.SERVER_RESTART:
            self.space_server.start()
        elif kind == FaultKind.PARTITION:
            host = self.resolve_target(event.target)
            if host is not None:
                self.network.heal_partition(host, "*")
        elif kind == FaultKind.PAUSE:
            host = self.resolve_target(event.target)
            if host is not None:
                self.network.resume(host)
        elif kind == FaultKind.GRAY_SLOW:
            host = self.resolve_target(event.target)
            if host is not None:
                self.network.heal_slow(host)
        else:
            return
        self.healed += 1
        self._record("fault-healed", event)
