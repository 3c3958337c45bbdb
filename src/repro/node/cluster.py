"""Cluster assembly: the paper's two testbeds as ready-made factories.

* :func:`testbed_small` — "a five PC cluster, with 800 MHz Intel Pentium
  III processors and 256 MB RAM" (ray tracing, pre-fetching), master on
  an equal 800 MHz machine.
* :func:`testbed_large` — "a larger cluster with thirteen PCs … 300 MHz
  processors and 64 MB RAM" (option pricing); "due to the high memory
  requirements of the Jini infrastructure, the master module … runs on an
  800 MHz Intel Pentium III processor PC with 256 MB RAM."
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.node.machine import FAST_PC, SLOW_PC, MachineSpec, Node
from repro.runtime.base import Runtime
from repro.sim.rng import RandomStreams

__all__ = ["Cluster", "testbed_small", "testbed_large"]


class Cluster:
    """A master node plus worker nodes on one network segment."""

    def __init__(
        self,
        runtime: Runtime,
        master_spec: MachineSpec = FAST_PC,
        latency: Optional[LatencyModel] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.runtime = runtime
        self.streams = streams if streams is not None else RandomStreams(0)
        self.network = Network(
            runtime,
            latency=latency if latency is not None else LatencyModel(),
            rng=self.streams.stream("network"),
        )
        self.master = Node(runtime, self.network, "master", master_spec)
        self.workers: list[Node] = []
        self.space_hosts: list[Node] = []

    def add_worker(self, spec: MachineSpec, hostname: Optional[str] = None) -> Node:
        name = hostname if hostname is not None else f"worker{len(self.workers) + 1}"
        node = Node(self.runtime, self.network, name, spec)
        self.workers.append(node)
        return node

    def add_workers(self, count: int, spec: MachineSpec) -> list[Node]:
        return [self.add_worker(spec) for _ in range(count)]

    def add_space_host(self, spec: MachineSpec,
                       hostname: Optional[str] = None) -> Node:
        """A node that serves tuple-space shards but runs no worker — the
        paper's deployment shape (the JavaSpaces server got its own
        machine, off the compute nodes)."""
        name = (hostname if hostname is not None
                else f"space{len(self.space_hosts) + 1}")
        node = Node(self.runtime, self.network, name, spec)
        self.space_hosts.append(node)
        return node

    def add_space_hosts(self, count: int, spec: MachineSpec) -> list[Node]:
        return [self.add_space_host(spec) for _ in range(count)]

    @property
    def nodes(self) -> list[Node]:
        return [self.master, *self.workers]

    def rng(self, name: str) -> np.random.Generator:
        return self.streams.stream(name)


def testbed_small(runtime: Runtime, workers: int = 5,
                  streams: Optional[RandomStreams] = None) -> Cluster:
    """Five 800 MHz / 256 MB PCs (ray tracing & pre-fetching experiments)."""
    cluster = Cluster(runtime, master_spec=FAST_PC, streams=streams)
    cluster.add_workers(workers, FAST_PC)
    return cluster


def testbed_large(runtime: Runtime, workers: int = 13,
                  streams: Optional[RandomStreams] = None) -> Cluster:
    """Thirteen 300 MHz / 64 MB PCs, 800 MHz master (option pricing)."""
    cluster = Cluster(runtime, master_spec=FAST_PC, streams=streams)
    cluster.add_workers(workers, SLOW_PC)
    return cluster
