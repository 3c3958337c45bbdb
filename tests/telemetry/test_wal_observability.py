"""The checkpoint trigger is observable without a rerun: read-through
gauges beside ``wal.commits`` / ``wal.syncs``, the ``repro top`` WAL
line, and a ``wal.snapshot`` trace instant that lets the doctor name the
largest checkpoint (the one durability stall that grows with the store).
"""

from __future__ import annotations

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from repro.telemetry import analyze_job, cluster_table
from repro.telemetry.console import cluster_snapshot
from tests.core.toyapp import SumOfSquares


def run_durable(shards: int = 1):
    def body(runtime):
        cluster = testbed_small(runtime, workers=2, streams=RandomStreams(3))
        framework = AdaptiveClusterFramework(
            runtime, cluster, SumOfSquares(n=40),
            FrameworkConfig(monitoring=False, trace=True,
                            durable_space=True, shards=shards))
        framework.start()
        report = framework.run()
        framework.shutdown()
        assert report.complete
        return framework

    return run_simulation(body)


def test_checkpoint_gauges_top_line_and_doctor_counts():
    framework = run_durable()
    store = framework.space.wal.store
    assert store.checkpoints >= 1            # > 64 commits on one space

    samples = {}
    for line in framework.registry.prometheus_text().splitlines():
        name, _, value = line.rpartition(" ")
        samples[name] = value
    assert float(samples["wal_checkpoints"]) == store.checkpoints
    assert float(samples["wal_tail_bytes"]) == store.tail_bytes
    assert float(samples["wal_state_bytes"]) == len(store.snapshot)
    assert float(samples["wal_commits"]) == store.last_lsn()

    wal = cluster_snapshot(framework)["wal"]
    assert wal == {"commits": store.last_lsn(), "syncs": store.syncs,
                   "checkpoints": store.checkpoints,
                   "tail_bytes": store.tail_bytes,
                   "state_bytes": len(store.snapshot)}
    assert (f"wal: commits={wal['commits']} syncs={wal['syncs']} "
            f"checkpoints={wal['checkpoints']} ") in cluster_table(framework)

    instants = [s for s in framework.tracer.spans if s.name == "wal.snapshot"]
    assert len(instants) == store.checkpoints
    assert all(s.attrs["bytes"] > 0 and s.attrs["entries"] >= 0
               for s in instants)
    doc = analyze_job(framework.tracer)
    assert doc.counts["wal_checkpoints"] == store.checkpoints
    assert doc.counts["wal_checkpoint_max_bytes"] == max(
        s.attrs["bytes"] for s in instants)
    assert "largest checkpoint: " in doc.format()


def test_gauges_carry_shard_labels():
    framework = run_durable(shards=2)
    text = framework.registry.prometheus_text()
    for shard in ("0", "1"):
        for gauge in ("wal_tail_bytes", "wal_state_bytes", "wal_checkpoints"):
            assert f'{gauge}{{shard="{shard}"}}' in text
    assert "wal: commits=" in cluster_table(framework)
