"""Coordinator-fault acceptance: survive the space primary and the master.

Across seeds, killing the primary space server (hot-standby failover)
and/or the master (checkpoint/resume) mid-run must still complete every
task exactly-once, and the whole recovery trace must replay
byte-identically from the same seed.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.chaos import (
    coordination_chaos_experiment,
    verify_coordination_determinism,
)

SEEDS = [1, 2, 3]
_env_seed = os.environ.get("CHAOS_SEED")
if _env_seed is not None and int(_env_seed) not in SEEDS:
    SEEDS.append(int(_env_seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_space_primary_kill_fails_over_and_completes_exactly_once(seed):
    result = coordination_chaos_experiment(
        seed=seed, faults=("kill-primary-space",))
    assert result.faults_injected == 1
    assert result.exactly_once, result.format_summary()
    names = {n for _, n, _ in result.trace}
    assert {"space-primary-killed", "primary-heartbeat-miss",
            "standby-promoted", "failover-complete",
            "proxy-rediscovered"} <= names, result.format_summary()


@pytest.mark.parametrize("seed", SEEDS)
def test_master_kill_resumes_from_checkpoint_exactly_once(seed):
    result = coordination_chaos_experiment(seed=seed, faults=("kill-master",))
    assert result.faults_injected == 1
    assert result.master_restarts == 1
    assert result.exactly_once, result.format_summary()
    assert result.report.resumed_from_seq >= 1
    names = {n for _, n, _ in result.trace}
    assert {"master-kill-injected", "master-killed", "master-restarted",
            "master-checkpoint", "master-resumed"} <= names, \
        result.format_summary()


def test_both_coordinator_faults_in_one_run():
    result = coordination_chaos_experiment(
        seed=3, faults=("kill-primary-space", "kill-master"))
    assert result.faults_injected == 2
    assert result.exactly_once, result.format_summary()
    names = {n for _, n, _ in result.trace}
    assert "failover-complete" in names
    assert "master-resumed" in names


@pytest.mark.parametrize("faults", [("kill-primary-space",), ("kill-master",)])
def test_same_seed_replays_identical_coordination_trace(faults):
    seed = int(os.environ.get("CHAOS_SEED", "42"))
    assert verify_coordination_determinism(seed=seed, faults=faults)


# ---------------------------------------------------------------------------
# Mid-batch coordinator faults (pipelined data path, prefetch > 1).
#
# With prefetch=4 each worker holds several tasks under one transaction
# and retires them with a single batched write-back RPC, so the kill
# lands while a multi-task batch is in flight: the batch must revert or
# commit as a unit — never half-apply — for exactly-once to hold.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_primary_kill_mid_batch_preserves_exactly_once(seed):
    result = coordination_chaos_experiment(
        seed=seed, faults=("kill-primary-space",), prefetch=4)
    assert result.faults_injected == 1
    assert result.exactly_once, result.format_summary()
    names = {n for _, n, _ in result.trace}
    assert {"space-primary-killed", "standby-promoted",
            "failover-complete"} <= names, result.format_summary()


@pytest.mark.parametrize("seed", SEEDS)
def test_master_kill_mid_batch_preserves_exactly_once(seed):
    result = coordination_chaos_experiment(
        seed=seed, faults=("kill-master",), prefetch=4)
    assert result.faults_injected == 1
    assert result.master_restarts == 1
    assert result.exactly_once, result.format_summary()
    names = {n for _, n, _ in result.trace}
    assert {"master-killed", "master-restarted",
            "master-resumed"} <= names, result.format_summary()


def test_both_faults_mid_batch_and_deterministic_replay():
    result = coordination_chaos_experiment(
        seed=2, faults=("kill-primary-space", "kill-master"), prefetch=4)
    assert result.faults_injected == 2
    assert result.exactly_once, result.format_summary()
    assert verify_coordination_determinism(
        seed=2, faults=("kill-primary-space", "kill-master"), prefetch=4)


# ---------------------------------------------------------------------------
# Nemesis faults (partition / pause / gray-slow).
#
# Unlike the kill-* faults above, these never announce themselves to the
# victim: a partitioned or paused primary keeps believing it is primary.
# Correctness rests entirely on lease fencing (the supervisor waits out
# the last renewal it put on the wire; the primary self-fences when no
# renewal arrives) — and the per-op history checker audits every run.
# ---------------------------------------------------------------------------

def test_partition_campaign_stays_consistent():
    # Unsharded: the supervisor is co-located with the primary, so the
    # egress cut cannot sever supervision (loopback is exempt) — workers
    # simply ride out the cut and the history stays clean.
    result = coordination_chaos_experiment(seed=7, faults=("partition",))
    assert result.faults_injected == 1
    assert result.correct, result.format_summary()
    assert result.consistent, result.history_report.summary()
    names = {n for _, n, _ in result.trace}
    assert "fault-healed" in names, result.format_summary()


def test_sharded_partition_campaign_promotes_one_shard():
    result = coordination_chaos_experiment(
        seed=7, shards=4, faults=("partition:shard:1",))
    assert result.faults_injected == 1
    assert result.correct, result.format_summary()
    assert result.consistent, result.history_report.summary()
    names = {n for _, n, _ in result.trace}
    assert {"failover-complete", "standby-rejoining"} <= names, \
        result.format_summary()


def test_pause_campaign_fences_the_revived_primary():
    result = coordination_chaos_experiment(seed=7, faults=("pause",))
    assert result.correct, result.format_summary()
    assert result.consistent, result.history_report.summary()
    # The paused primary wakes after promotion: its stale RPCs must have
    # been turned away by the fence, and it must have rejoined as a
    # standby that caught back up.
    assert result.fenced_rpcs >= 1, result.format_summary()
    names = {n for _, n, _ in result.trace}
    assert {"failover-complete", "primary-fenced",
            "standby-rejoining"} <= names, result.format_summary()


def test_gray_slow_campaign_completes_consistently():
    result = coordination_chaos_experiment(seed=7, faults=("gray-slow",))
    assert result.faults_injected == 1
    assert result.correct, result.format_summary()
    assert result.consistent, result.history_report.summary()


@pytest.mark.parametrize("faults", [("partition",), ("pause",)])
def test_nemesis_campaigns_replay_deterministically(faults):
    # Byte-identical trace/solution/aggregations across the stall or cut.
    assert verify_coordination_determinism(seed=7, faults=faults)


#: Failover instants at commit 249030b, where every supervisor pinged its
#: own primary from its own process.  Both campaigns keep one primary per
#: host, so the shared probe round is that very ping: same messages, same
#: instants, to the last bit.  (Re-captured once since, when master
#: checkpoints went from a 1 s period to following progress: the probe
#: loop's phase is the sum of its earlier round trips, which share links
#: with whatever else is on the wire.  Misses and promotion moved 0.068 ms
#: earlier on the first campaign and 0.171 ms on the second, completion
#: 0.115 / 0.171 ms — first miss was 3008.341776899116 /
#: 3010.655170683776; the 250 ms spacing and the order are unchanged.)
PARENT_FAILOVER_INSTANTS = {
    (11, ("kill-primary-space",), 1, 1): [
        (3008.2736965519275, "primary-heartbeat-miss"),
        (3258.2736965519275, "primary-heartbeat-miss"),
        (3508.2736965519275, "primary-heartbeat-miss"),
        (3508.2736965519275, "standby-promoted"),
        (3509.7452964329755, "failover-complete"),
        (3509.7452964329755, "primary-fenced"),
        (3509.7452964329755, "standby-rejoining")],
    (23, ("kill-shard:0",), 4, 4): [
        (3010.4837641578642, "primary-heartbeat-miss"),
        (3260.4837641578642, "primary-heartbeat-miss"),
        (3510.4837641578642, "primary-heartbeat-miss"),
        (3510.4837641578642, "standby-promoted"),
        (3511.9004624008357, "failover-complete"),
        (3511.9004624008357, "primary-fenced"),
        (3511.9004624008357, "standby-rejoining")],
}


@pytest.mark.parametrize("campaign", sorted(PARENT_FAILOVER_INSTANTS))
def test_one_primary_per_host_fails_over_at_the_parent_commits_instants(
        campaign):
    seed, faults, shards, prefetch = campaign
    result = coordination_chaos_experiment(
        seed=seed, faults=faults, shards=shards, prefetch=prefetch)
    assert result.correct
    failover = {name for _, name in PARENT_FAILOVER_INSTANTS[campaign]}
    assert [(t, name) for t, name, _ in result.trace
            if name in failover] == PARENT_FAILOVER_INSTANTS[campaign]
