"""Exact wire and hand-off cost of the hardened and the per-task path.

The sharded sibling of the unsharded 8-messages-per-task cell: one warm
24-task job on 4 shards with hot standbys, synchronous replication and
master checkpoints, counted on the simulated network — virtual-time
deterministic, so the ceilings are exact and noise-free.  They exist so
that polling cannot creep back unnoticed — into the wildcard wait (the
camp-and-rescan router cost 2 286 messages and 875 spawned processes
for this job) or into liveness (a ping per shard cost 855 messages) —
and so that a message stays an event, not a thread switch.
"""

from __future__ import annotations

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from repro.tuplespace.failover import HEARTBEAT_MS
from tests.core.toyapp import SumOfSquares

TASKS = 24
#: What one warm job may put on the wire.  Measured: 311, of which
#: heartbeats 128 (one probe round for the four co-hosted primaries x 4/s
#: x 16 virtual s x 2); the master's drain 24 (12 takes, each at a shard
#: a result event pointed to: no deadline lapses while the job is
#: quiet, because a checkpoint is due only after progress); checkpoints
#: 12 (3 written and retired on a drain, the adopt probe and the
#: end-of-job sweep); dead-letter scan 8; replication batches + acks 36;
#: notify events 21; the workers' write-back/prefetch cycles 74 (64 of
#: them finding each shard dry at the end of the job); seeding 8.  Under
#: the 1 s checkpoint *period* it was 469: a 4-shard rescan, a
#: checkpoint batch and a replication round trip every virtual second.
MAX_MESSAGES = 314
#: The seeding write_all fans out over the 4 shards; nothing else spawns.
MAX_SPAWNS = 4
#: Thread hand-offs of the simulator for that job (measured: 64) and, per
#: task, for the same job on the paper-faithful path — prefetch 1, one
#: task per RPC, 8 messages per task (measured: 68 = 2.83 per task).  A
#: server parked in a process per connection cost one more per message.
#: (64, not the period rule's 57, though the master wakes 30 times
#: instead of 88: waking the thread that already holds the baton was
#: free, and on this timeline the seeding race spreads the last round
#: evenly — 9/7/9/7 worker wake-ups in the final 5 ms instead of
#: 9/5/3/9 — so all four write-back cycles interleave: 34 hand-offs
#: there, was 29.  None is a checkpoint's: all 3 ride a drain that a
#: result event woke, and no wait is clipped.)
MAX_SWITCHES = 67
MAX_SWITCHES_PER_TASK = 3.0

_COMMON = dict(monitoring=False, compute_real=True, transactional_takes=True,
               worker_poll_ms=10_000.0, dead_letter_poll_ms=10_000.0)
HARDENED = dict(_COMMON, worker_prefetch=6, master_seed_batch=TASKS,
                master_drain_batch=TASKS, shards=4, hot_standby=True,
                durable_space=True,
                master_checkpoint_ms=1_000.0)
PER_TASK = dict(_COMMON, worker_prefetch=1, master_seed_batch=1,
                master_drain_batch=1)


def _warm_job_cost(config):
    def body(runtime):
        cluster = testbed_small(runtime, workers=4,
                                streams=RandomStreams(11))
        app = SumOfSquares(n=TASKS, task_cost=2_500.0, planning_cost=20.0,
                           aggregation_cost=30.0)
        framework = AdaptiveClusterFramework(runtime, cluster, app,
                                             FrameworkConfig(**config))
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
        switches, started = kernel.switches, runtime.now()
        rounds = [s.probes for s in framework.supervisors]
        report = framework.master.run()
        cost = dict(
            messages=stats["messages"] - messages, spawned=spawned,
            grown=len(kernel.processes) - standing,
            switches=kernel.switches - switches,
            heartbeats=(runtime.now() - started) / HEARTBEAT_MS,
            rounds=[s.probes - before for s, before
                    in zip(framework.supervisors, rounds)])
        kernel.spawn = spawn
        framework.shutdown()
        assert report.complete
        assert report.solution == sum(i * i for i in range(TASKS))
        return cost

    return run_simulation(body)


def test_hardened_job_wire_cost_and_spawns_stay_under_their_ceilings():
    cost = _warm_job_cost(HARDENED)
    messages = cost["messages"]
    assert messages <= MAX_MESSAGES, (
        f"{messages} messages ({messages / TASKS:.1f} per task) for one "
        f"warm {TASKS}-task hardened job; ceiling {MAX_MESSAGES}")
    assert len(cost["spawned"]) <= MAX_SPAWNS, cost["spawned"]
    assert cost["grown"] == 0, f"{cost['grown']} processes outlived the job"
    assert cost["switches"] <= MAX_SWITCHES
    # All four primaries share the master host, so all four supervisors
    # ride the same rounds: at most one per heartbeat, for the host.
    assert len(set(cost["rounds"])) == 1
    assert 0 < cost["rounds"][0] <= cost["heartbeats"] + 1


def test_per_task_job_costs_under_three_switches_per_task():
    cost = _warm_job_cost(PER_TASK)
    assert cost["messages"] == 8 * TASKS
    assert cost["switches"] <= MAX_SWITCHES_PER_TASK * TASKS, cost["switches"]
    assert not cost["spawned"] and cost["grown"] == 0
