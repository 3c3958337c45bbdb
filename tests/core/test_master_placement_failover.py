"""Failover where every primary shares a host: the benchmark's placement.

``shards=4, hot_standby=True`` with the default ``"master"`` placement
puts all four primaries, their standbys and their supervisors on the
master node — the shape ``farm_hardened`` measures, and the one where the
supervisors share a single probe round.  The chaos campaigns always
spread the primaries (``chaos.py``: one primary per host), so this file
is the only place a primary dies *beside* three that must keep serving.
"""

from __future__ import annotations

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from repro.tuplespace.failover import HEARTBEAT_MS, MAX_MISSES
from repro.verify import check_history
from tests.core.toyapp import SumOfSquares

TASKS = 24
KILLED = 1
KILL_AT_MS = 3_000.0
FAILOVER_EVENTS = ("space-shard-killed", "primary-heartbeat-miss",
                   "failover-lease-wait", "standby-promoted",
                   "failover-complete", "primary-fenced", "standby-rejoining")


def _kill_shard_campaign(seed=11):
    def body(runtime):
        cluster = testbed_small(runtime, workers=4,
                                streams=RandomStreams(seed))
        app = SumOfSquares(n=TASKS, task_cost=400.0, planning_cost=20.0,
                           aggregation_cost=30.0)
        framework = AdaptiveClusterFramework(
            runtime, cluster, app,
            FrameworkConfig(
                monitoring=False, compute_real=True,
                transactional_takes=True, task_txn_lease_ms=10_000.0,
                rpc_timeout_ms=1_000.0, dead_letter_poll_ms=500.0,
                worker_prefetch=4, master_seed_batch=4, master_drain_batch=4,
                shards=4, hot_standby=True, master_checkpoint_ms=1_000.0,
                record_history=True,
            ))
        assert framework.config.shard_placement == "master"
        framework.start()
        framework.start_all_workers()

        def nemesis():
            runtime.sleep(KILL_AT_MS)
            framework.kill_shard(KILLED)

        runtime.spawn(nemesis, name="nemesis")
        report = framework.run_with_recovery()
        runtime.sleep(2 * HEARTBEAT_MS)         # the survivors keep renewing
        now = runtime.now()
        observed = dict(
            report=report,
            failed_over=[s.failovers > 0 for s in framework.supervisors],
            leases_live=[server._lease_expires > now
                         for server in framework.space_servers],
            probe_misses=[s.probe_misses for s in framework.supervisors],
            probes=[s.probes for s in framework.supervisors],
            heartbeats=now / HEARTBEAT_MS,
            trace=[(t, name, tuple(sorted(payload.items())))
                   for t, name, payload in framework.metrics.events
                   if name in FAILOVER_EVENTS],
        )
        framework.shutdown()
        observed["history"] = check_history(framework.history,
                                            framework.final_contents())
        return observed

    return run_simulation(body)


def test_kill_shard_beside_three_cohosted_primaries():
    run = _kill_shard_campaign()
    report = run["report"]
    assert report.complete and not report.duplicate_results
    assert report.solution == sum(i * i for i in range(TASKS))
    assert run["history"].ok, run["history"]

    # Shard 1, and only shard 1, was promoted ...
    assert run["failed_over"] == [i == KILLED for i in range(4)]
    names = [name for _, name, _ in run["trace"]]
    assert names.count("standby-promoted") == 1
    # ... after exactly MAX_MISSES rounds whose answer for it was "dead"
    # (its node's lease endpoint knows nothing serves there), so there
    # was no lease to wait out ...
    misses = [dict(payload) for _, name, payload in run["trace"]
              if name == "primary-heartbeat-miss"]
    assert [m["status"] for m in misses] == ["dead"] * MAX_MISSES
    assert "failover-lease-wait" not in names
    killed_at = next(t for t, name, _ in run["trace"]
                     if name == "space-shard-killed")
    promoted_at = next(t for t, name, _ in run["trace"]
                       if name == "standby-promoted")
    assert promoted_at - killed_at <= MAX_MISSES * (HEARTBEAT_MS + 1.0)
    # ... while the other three were renewed by the very same rounds.
    assert run["probe_misses"] == [MAX_MISSES if i == KILLED else 0
                                   for i in range(4)]
    assert run["leases_live"] == [i != KILLED for i in range(4)]
    # One round per heartbeat for the whole host, never one per shard.
    assert max(run["probes"]) <= run["heartbeats"] + 1


def test_master_placement_failover_replays_identically():
    first, second = _kill_shard_campaign(23), _kill_shard_campaign(23)
    assert first["trace"] == second["trace"]
    assert first["probes"] == second["probes"]
    assert first["report"] == second["report"]
