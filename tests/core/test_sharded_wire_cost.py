"""Exact wire cost of the hardened (sharded, replicated) data path.

The sharded sibling of the unsharded 8-messages-per-task cell: one warm
24-task job on 4 shards with hot standbys, synchronous replication and
master checkpoints, counted on the simulated network — virtual-time
deterministic, so the ceilings are exact and noise-free.  They exist so
that polling cannot creep back into the wildcard wait unnoticed: the
camp-and-rescan router this replaced cost 2 286 messages and 875
spawned processes for the same job.
"""

from __future__ import annotations

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from tests.core.toyapp import SumOfSquares

TASKS = 24
#: What one warm job may put on the wire.  Measured: 855, of which
#: heartbeats 512 (4 shards x 4/s x 16 virtual s x 2); the master's drain
#: 132 (a 4-shard rescan at each 1 s checkpoint deadline, plus one take
#: per result event); checkpoint write + retire 34; dead-letter scan 16;
#: replication batches + acks 58; notify events 21; the workers'
#: write-back/prefetch cycles 74 (64 of them finding each shard dry at
#: the end of the job); seeding 8.
MAX_MESSAGES = 860
#: The seeding write_all fans out over the 4 shards; nothing else spawns.
MAX_SPAWNS = 4


def _warm_job_cost():
    def body(runtime):
        cluster = testbed_small(runtime, workers=4,
                                streams=RandomStreams(11))
        app = SumOfSquares(n=TASKS, task_cost=2_500.0, planning_cost=20.0,
                           aggregation_cost=30.0)
        framework = AdaptiveClusterFramework(
            runtime, cluster, app,
            FrameworkConfig(
                monitoring=False, compute_real=True,
                transactional_takes=True, worker_poll_ms=10_000.0,
                dead_letter_poll_ms=10_000.0, worker_prefetch=6,
                master_seed_batch=TASKS, master_drain_batch=TASKS,
                shards=4, hot_standby=True, sync_replication=True,
                durable_space=True, master_checkpoint_ms=1_000.0,
            ))
        framework.start()
        framework.start_all_workers()
        assert framework.master.run().complete          # warm-up
        kernel = runtime.kernel
        spawned: list[str] = []
        spawn = kernel.spawn

        def counting_spawn(fn, name="proc"):
            spawned.append(name)
            return spawn(fn, name=name)

        kernel.spawn = counting_spawn
        stats = cluster.network.stats
        messages, standing = stats["messages"], len(kernel.processes)
        report = framework.master.run()
        cost = (stats["messages"] - messages, spawned,
                len(kernel.processes) - standing)
        kernel.spawn = spawn
        framework.shutdown()
        assert report.complete
        assert report.solution == sum(i * i for i in range(TASKS))
        return cost

    return run_simulation(body)


def test_hardened_job_wire_cost_and_spawns_stay_under_their_ceilings():
    messages, spawned, grown = _warm_job_cost()
    assert messages <= MAX_MESSAGES, (
        f"{messages} messages ({messages / TASKS:.1f} per task) for one "
        f"warm {TASKS}-task hardened job; ceiling {MAX_MESSAGES}")
    assert len(spawned) <= MAX_SPAWNS, spawned
    assert grown == 0, f"{grown} processes outlived the job"
