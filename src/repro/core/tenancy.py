"""Priority preemption: the rule-base's fact source for urgent work held
up behind a worker's preemptible carry (DESIGN.md, "The rule-base")."""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.core.entries import TaskEntry
from repro.core.signals import Signal

__all__ = ["PreemptionGovernor"]


class PreemptionGovernor:
    """Tasks at ``priority >= priority_cutoff`` (``None`` reads 0) are urgent."""

    def __init__(self, framework: Any, poll_ms: float = 500.0,
                 priority_cutoff: int = 1) -> None:
        self.framework, self.runtime = framework, framework.runtime
        self.poll_ms, self.priority_cutoff, self.running = poll_ms, priority_cutoff, False
        self.stats = {"polls": 0, "preemptions": 0, "tasks_released": 0}

    def start(self) -> None:
        self.running = True   # the first poll comes one zero-delay event later
        self.runtime.call_later(0.0, partial(self._release, []))

    def stop(self) -> None:
        self.running = False

    def _poll(self) -> None:
        if not self.running:
            return
        self.stats["polls"] += 1
        framework, cutoff, held, paused = self.framework, self.priority_cutoff, [], 0
        urgent = any((task.priority or 0) >= cutoff for task in [
            task for space in framework.current_spaces()   # read every space:
            for task in space.contents(TaskEntry())])      # contents reaps
        for host in framework.worker_hosts if urgent else ():
            carry = 0 if host.crashed else sum(
                (task.priority or 0) < cutoff for task in host.carry())
            if carry:
                held.append(host.worker_id)
                if framework.inference.observe_carry(
                        host.worker_id, True) is Signal.PAUSE:
                    paused += 1
                    self.stats["tasks_released"] += carry
                    framework.metrics.event("tenant-preempted", worker=host.node.hostname,
                                            released=carry, cutoff=cutoff)
        self.stats["preemptions"] += paused
        if paused:   # one worker poll lets the Pauses land between tasks
            self.runtime.call_later(framework.config.worker_poll_ms,
                                    partial(self._release, held))
        else:
            self._release(held)

    def _release(self, held: list[int]) -> None:
        for worker_id in held:
            self.framework.inference.observe_carry(worker_id, False)
        self.runtime.call_later(self.poll_ms, self._poll)
