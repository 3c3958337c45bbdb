"""Experiment 2: adaptation-protocol analysis (Figs 9, 10, 11).

A single worker runs the application while a scripted load sequence
drives it through the full signal cycle:

  Start (class-load spike) → load sim 2 (100 %) → Stop → release →
  Start again (class reload) → load sim 1 (30–50 %) → Pause → release →
  Resume.

Outputs, per figure panel:

* (a) the worker's CPU-usage history (total %, step function);
* (b) per-signal reaction latencies — *Client Signal* (network delivery
  to the SNMP client) and *Worker Signal* (until the required action
  completed at the worker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.application import Application
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import Cluster
from repro.node.loadgen import LoadScript, LoadSimulator1, LoadSimulator2
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams

__all__ = ["SignalReaction", "AdaptationResult", "adaptation_experiment",
           "PAPER_TIMELINE", "END_MS"]


#: (time_ms, action) template for the paper's load sequence; actions are
#: named so the experiment can bind them to the simulators at run time.
PAPER_TIMELINE = [
    (8_000.0, "loadsim2-start"),    # → Stop
    (16_000.0, "loadsim2-stop"),    # → Start (class reload)
    (26_000.0, "loadsim1-start"),   # → Pause
    (34_000.0, "loadsim1-stop"),    # → Resume
]

#: Virtual ms the experiment observes: the timeline plus the Resume's tail.
END_MS = 44_000.0


@dataclass(frozen=True)
class SignalReaction:
    at_ms: float
    signal: str
    client_ms: float      # server → SNMP client delivery latency
    worker_ms: float      # client receipt → required action completed


@dataclass
class AdaptationResult:
    app_id: str
    cpu_history: list[tuple[float, float, float]]   # (t, total %, external %)
    reactions: list[SignalReaction]
    signals_in_order: list[str]
    class_loads: int
    snmp_polls: int = 0
    snmp_datagrams: int = 0

    def reaction_for(self, signal: str, occurrence: int = 0) -> SignalReaction:
        matches = [r for r in self.reactions if r.signal == signal]
        return matches[occurrence]

    def peak_cpu(self, t0: float, t1: float) -> float:
        """Max total CPU in [t0, t1], step-function semantics: the level
        in effect at t0 (set by the last step at or before it) counts."""
        peak = 0.0
        current = 0.0
        for t, total, _ in self.cpu_history:
            if t <= t0:
                current = total
                continue
            if t > t1:
                break
            peak = max(peak, current, total)
            current = total
        return max(peak, current if t0 <= t1 else 0.0)

    def format_table(self) -> str:
        header = f"{'t (ms)':>10} {'signal':>8} {'client (ms)':>12} {'worker (ms)':>12}"
        lines = [f"Adaptation protocol — {self.app_id}", header, "-" * len(header)]
        for r in self.reactions:
            lines.append(
                f"{r.at_ms:>10.0f} {r.signal:>8} {r.client_ms:>12.2f} "
                f"{r.worker_ms:>12.1f}"
            )
        return "\n".join(lines)


def adaptation_experiment(
    app_factory: Callable[[], Application],
    cluster_factory: Callable[..., Cluster],
    poll_interval_ms: float = 1000.0,
    seed: int = 0,
    policy=None,
) -> AdaptationResult:
    """Run the paper's scripted load sequence against a one-worker
    deployment that models its tasks' compute (no real payloads)."""
    app_id = app_factory().app_id

    def body(runtime: SimulatedRuntime) -> AdaptationResult:
        from repro.core.signals import ThresholdPolicy

        cluster = cluster_factory(runtime, workers=1, streams=RandomStreams(seed))
        node = cluster.workers[0]
        app = app_factory()
        framework = AdaptiveClusterFramework(
            runtime, cluster, app,
            FrameworkConfig(poll_interval_ms=poll_interval_ms,
                            compute_real=False,
                            thresholds=policy if policy is not None
                            else ThresholdPolicy()),
        )
        framework.start()

        sim1 = LoadSimulator1(runtime, node, rng=cluster.rng("loadsim1"))
        sim2 = LoadSimulator2(runtime, node)
        actions = {
            "loadsim1-start": sim1.start,
            "loadsim1-stop": sim1.stop,
            "loadsim2-start": sim2.start,
            "loadsim2-stop": sim2.stop,
        }
        LoadScript(runtime, [(t, actions[name])
                             for t, name in PAPER_TIMELINE]).start()

        # The master keeps feeding tasks in the background; the experiment
        # observes the worker, not application completion.
        runtime.spawn(framework.master.run, name="master-run")
        runtime.sleep(END_MS)

        host = framework.worker_hosts[0]
        metrics = framework.metrics
        sent = metrics.events_named("signal-sent")
        client = metrics.events_named("signal-client")
        honored = metrics.events_named("signal-honored")

        reactions = []
        for t, payload in client:
            signal = payload["signal"]
            # First honored event at/after the client receipt for this signal.
            worker_ms = next(
                (
                    hp["latency_ms"]
                    for ht, hp in honored
                    if ht >= t and hp["signal"] == signal
                ),
                float("nan"),
            )
            reactions.append(
                SignalReaction(
                    at_ms=t,
                    signal=signal,
                    client_ms=payload["latency_ms"],
                    worker_ms=worker_ms,
                )
            )

        result = AdaptationResult(
            app_id=app.app_id,
            cpu_history=node.cpu.recorder.history(),
            reactions=reactions,
            signals_in_order=[p["signal"] for _, p in sent],
            class_loads=host.engine.loads,
            snmp_polls=framework.netmgmt.stats["polls"],
            snmp_datagrams=cluster.network.stats["datagrams"],
        )
        framework.shutdown()
        return result

    return run_simulation(body)
