"""Synthetic load generators (the paper's experimental setup, §5.2.2).

* **Load simulator 1** "simulates different types of data transfers, such
  as RTP packets for voice traffic, HTTP traffic, and multimedia traffic
  over HTTP via Java sockets … designed to raise the CPU usage level on
  the worker from 30 % to 50 %."  Modelled as a bursty source whose level
  resamples uniformly in [30, 50] at traffic-burst intervals.
* **Load simulator 2** "raised the CPU utilization of the worker machines
  to 100 %."  Modelled as a constant 100 % source.

:class:`LoadScript` drives repeatable load timelines for the adaptation
experiments (start/stop simulators at scripted virtual times).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.node.machine import Node
from repro.runtime.base import Runtime

__all__ = ["LoadSimulator1", "LoadSimulator2", "LoadScript"]


class _LoadSimulator:
    """Common start/stop machinery for background load sources."""

    source_name = "loadsim"

    def __init__(self, runtime: Runtime, node: Node) -> None:
        self.runtime = runtime
        self.node = node
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._apply()

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        self.node.cpu.clear_background(self.source_name)

    def _apply(self) -> None:
        raise NotImplementedError


class LoadSimulator1(_LoadSimulator):
    """Bursty 30–50 % traffic load (RTP/HTTP/multimedia mix)."""

    source_name = "loadsim1"
    #: Each burst's level (%) and length (ms) are drawn uniformly from
    #: these ranges.
    LEVEL = (30.0, 50.0)
    BURST_MS = (150.0, 450.0)

    def __init__(
        self,
        runtime: Runtime,
        node: Node,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(runtime, node)
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def _apply(self) -> None:
        self.runtime.spawn(self._burst_loop, name=f"loadsim1:{self.node.hostname}")

    def _burst_loop(self) -> None:
        while self.running:
            level = float(self.rng.uniform(*self.LEVEL))
            self.node.cpu.set_background(self.source_name, level)
            self.runtime.sleep(float(self.rng.uniform(*self.BURST_MS)))
        self.node.cpu.clear_background(self.source_name)


class LoadSimulator2(_LoadSimulator):
    """Saturating 100 % load (a higher-priority interactive job)."""

    source_name = "loadsim2"

    def _apply(self) -> None:
        self.node.cpu.set_background(self.source_name, 100.0)


class LoadScript:
    """Repeatable load timeline: ``[(t_ms, action), …]`` run as a process.

    Actions are zero-argument callables (typically simulator ``start`` /
    ``stop`` bound methods).  Times are absolute virtual times from the
    script's start.
    """

    def __init__(self, runtime: Runtime, steps: list[tuple[float, Callable[[], None]]]):
        self.runtime = runtime
        self.steps = sorted(steps, key=lambda s: s[0])
        self.done = False

    def start(self) -> None:
        self.runtime.spawn(self._run, name="load-script")

    def _run(self) -> None:
        base = self.runtime.now()
        for at_ms, action in self.steps:
            delay = base + at_ms - self.runtime.now()
            if delay > 0:
                self.runtime.sleep(delay)
            action()
        self.done = True
