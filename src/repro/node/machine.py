"""Machine specifications and nodes.

A :class:`Node` bundles a machine spec with its CPU model, its SNMP agent
MIB bindings, and its position on the network — everything the framework
needs to treat it as one cluster member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.network import Network
from repro.node.cpu import CpuModel
from repro.node.memory import MemoryModel
from repro.runtime.base import Runtime
from repro.snmp.agent import SnmpAgent
from repro.snmp.mib import HOST_RESOURCES, Mib

__all__ = ["MachineSpec", "Node"]


@dataclass(frozen=True)
class MachineSpec:
    """Hardware description (the paper's two PC types)."""

    cpu_mhz: float
    ram_mb: int

    def __str__(self) -> str:
        return f"{self.cpu_mhz:.0f} MHz / {self.ram_mb} MB"


#: The paper's testbed machine types.
FAST_PC = MachineSpec(cpu_mhz=800.0, ram_mb=256)   # Pentium III, 256 MB
SLOW_PC = MachineSpec(cpu_mhz=300.0, ram_mb=64)    # 300 MHz, 64 MB


class Node:
    """One cluster member: machine + CPU + (optional) SNMP agent."""

    #: The window the MIB's load gauges average over.
    LOAD_WINDOW_MS = 1000.0
    #: The SNMP community the node's agent and its load traps carry.
    SNMP_COMMUNITY = "public"

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        hostname: str,
        spec: MachineSpec,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.hostname = hostname
        self.spec = spec
        self.cpu = CpuModel(runtime, spec.cpu_mhz)
        self.memory = MemoryModel(spec.ram_mb)
        self._agent: Optional[SnmpAgent] = None

    # -- SNMP -------------------------------------------------------------------

    def build_mib(self) -> Mib:
        """MIB exposing this node's live state (fed by the CPU model)."""
        mib = Mib()
        mib.register(HOST_RESOURCES.SYS_DESCR, f"repro node ({self.spec})")
        mib.register(HOST_RESOURCES.SYS_NAME, self.hostname)
        mib.register(HOST_RESOURCES.SYS_UPTIME, lambda: int(self.runtime.now() / 10))
        mib.register(HOST_RESOURCES.HR_MEMORY_SIZE_KB, self.spec.ram_mb * 1024)
        mib.register(HOST_RESOURCES.HR_STORAGE_USED_KB, self.memory.used_kb)
        mib.register(
            HOST_RESOURCES.HR_PROCESSOR_LOAD,
            lambda: round(self.cpu.average_total(self.LOAD_WINDOW_MS)),
        )
        mib.register(
            HOST_RESOURCES.EXTERNAL_LOAD,
            lambda: round(self.cpu.average_external(self.LOAD_WINDOW_MS)),
        )
        mib.register(
            HOST_RESOURCES.TOTAL_LOAD,
            lambda: round(self.cpu.total_percent()),
        )
        return mib

    def start_agent(self) -> SnmpAgent:
        """Start the SNMP worker-agent on this node (idempotent)."""
        if self._agent is None:
            self._agent = SnmpAgent(
                self.runtime, self.network, self.hostname,
                self.build_mib(), community=self.SNMP_COMMUNITY,
            )
            self._agent.start()
        return self._agent

    def stop_agent(self) -> None:
        if self._agent is not None:
            self._agent.stop()
            self._agent = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.hostname}, {self.spec})"
