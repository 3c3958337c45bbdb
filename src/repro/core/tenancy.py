"""Multi-tenant job service: priority preemption between tasks.

The admission controller (:mod:`repro.tuplespace.proxy`) meters what
*enters* the space and the deficit-round-robin dispatcher
(:mod:`repro.tuplespace.space`) shares takes across tenants — but a
worker pipeline that already prefetched a batch of low-priority tasks
still makes an urgent tenant wait behind that whole carry.  The
:class:`PreemptionGovernor` closes the gap: it watches the queued
backlog, and when high-priority work is waiting while workers sit on
prefetched low-priority carries, it Pauses those workers and Resumes
them one poll later.  The Pause is honoured *between tasks* (the Fig. 5
rule the whole framework is built on), so the worker releases its carry
back to the space — transactional carries abort (the takes revert),
non-transactional ones are written back with ``requeue=True`` so the
give-back cannot be shed — and nothing is ever lost or duplicated: the
master's results-dict dedup keeps aggregation exactly-once even if a
released task races its replacement.

Preemption is deliberately cooperative and coarse: no task is killed
mid-compute (the paper's "signals honoured between tasks" invariant),
the governor merely stops low-priority pipelines from hoarding the
queue while urgent work exists.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.core.entries import TaskEntry
from repro.core.metrics import Metrics
from repro.core.signals import Signal
from repro.runtime.base import Runtime
from repro.util.log import get_logger

__all__ = ["PreemptionGovernor"]

_log = get_logger("tenancy")


class PreemptionGovernor:
    """Pauses/Resumes workers so urgent backlog overtakes stale carries.

    ``priority_cutoff``: tasks with ``priority >= cutoff`` are urgent;
    everything below (including ``priority None``, read as 0) is
    preemptible.  Runs on the master node with direct (in-process)
    access to the authoritative spaces and worker hosts, so decisions
    cost no RPCs and stay deterministic under the simulated clock.
    """

    def __init__(
        self,
        runtime: Runtime,
        framework: Any,
        metrics: Metrics,
        poll_ms: float = 500.0,
        priority_cutoff: int = 1,
    ) -> None:
        self.runtime = runtime
        self.framework = framework
        self.metrics = metrics
        self.poll_ms = poll_ms
        self.priority_cutoff = priority_cutoff
        self.running = False
        #: Read-through stats for the telemetry registry.
        self.stats: dict[str, int] = {"polls": 0, "preemptions": 0,
                                      "tasks_released": 0}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        # Armed one zero-delay event later, where a spawned loop's first
        # sleep would begin: each poll keeps its place in its instant's
        # event order, which replay determinism depends on.
        self.runtime.call_later(0.0, self._schedule_poll)

    def stop(self) -> None:
        self.running = False

    # -- the governing chain ---------------------------------------------------

    def _urgent_backlog(self) -> int:
        """Queued (visible, un-taken) tasks at or above the cutoff."""
        urgent = 0
        for space in self.framework.current_spaces():
            for entry in space.contents(TaskEntry()):
                if (entry.priority or 0) >= self.priority_cutoff:
                    urgent += 1
        return urgent

    def _preemptible_carry(self, host: Any) -> int:
        """How many sub-cutoff tasks ``host``'s pipeline is sitting on.

        A poll lands on the batch being computed (its CPU is charged as
        one block) far more often than on the prefetched carry, which
        spans zero simulated time.  The Pause is honoured *after* the
        active batch completes; what the worker then releases is its next
        prefetch, surrendering the pipeline's claim on the queue without
        killing any compute."""
        return sum(1 for task in host.carry()
                   if (task.priority or 0) < self.priority_cutoff)

    def _schedule_poll(self) -> None:
        self.runtime.call_later(self.poll_ms, self._poll)

    def _poll(self) -> None:
        if not self.running:
            return
        self.stats["polls"] += 1
        if self._urgent_backlog() == 0:
            self._schedule_poll()
            return
        # Urgent work is queued: preempt every worker hoarding a
        # low-priority carry.  Pause now; the worker honours it at its
        # next between-tasks check and releases the carry.
        paused: list[Any] = []
        for host in self.framework.worker_hosts:
            if host.crashed or not host.engine.machine.can_apply(Signal.PAUSE):
                continue
            carry = self._preemptible_carry(host)
            if carry == 0:
                continue
            host.handle_signal(Signal.PAUSE)
            paused.append(host)
            self.stats["preemptions"] += 1
            self.stats["tasks_released"] += carry
            self.metrics.event(
                "tenant-preempted", worker=host.node.hostname,
                released=carry, cutoff=self.priority_cutoff,
            )
            _log.info("t=%.0fms preempted %s (released %d tasks)",
                      self.runtime.now(), host.node.hostname, carry)
        if not paused:
            self._schedule_poll()
            return
        # One worker poll is enough for the between-tasks check to land;
        # then hand the CPU back — the released tasks are in the space and
        # the DRR dispatcher re-orders the takes.
        self.runtime.call_later(self.framework.config.worker_poll_ms,
                                partial(self._resume, paused))

    def _resume(self, paused: list[Any]) -> None:
        for host in paused:
            if host.engine.machine.can_apply(Signal.RESUME):
                host.handle_signal(Signal.RESUME)
        self._schedule_poll()
