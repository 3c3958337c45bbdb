"""The robustness acceptance scenario, across seeds.

A seeded fault campaign (worker crash + link flap + space-server restart)
plus one poison task must still produce the correct partial solution,
dead-letter the poison task in the MasterReport, and replay an identical
recovery-event trace from the same seed.  CI parametrizes the whole
fault-tolerance suite over several seeds via the ``CHAOS_SEED`` env var.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.chaos import (
    chaos_experiment,
    default_chaos_plan,
    verify_chaos_determinism,
)

SEEDS = [1, 2, 3]
_env_seed = os.environ.get("CHAOS_SEED")
if _env_seed is not None and int(_env_seed) not in SEEDS:
    SEEDS.append(int(_env_seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_campaign_completes_with_correct_partial_solution(seed):
    result = chaos_experiment(seed=seed)
    report = result.report
    # Every injectable failure mode actually fired during the run.
    assert result.faults_injected == 3
    assert result.faults_healed == 2            # crash is permanent
    # Correct solution over the non-poison tasks, exactly once each.
    assert result.correct, result.format_summary()
    assert sum(report.results_by_worker.values()) == 23
    # The poison task is reported dead, not silently lost.
    assert not report.complete
    assert list(report.dead_letters) == [7]
    assert "poison task 7" in report.dead_letters[7]
    # The crashed worker never contributes after its death.
    crash_t = next(t for t, n, p in result.trace
                   if n == "fault-injected" and dict(p)["kind"] == "worker-crash")
    assert crash_t == 2_500.0
    # Recovery observability: the outages are visible in the trace.
    names = {n for _, n, _ in result.trace}
    assert {"fault-injected", "fault-healed", "proxy-reconnected",
            "worker-reconnect", "worker-recovered", "dead-letter",
            "dead-letter-received", "task-requeued"} <= names


def test_same_seed_replays_identical_trace():
    seed = int(os.environ.get("CHAOS_SEED", "42"))
    first = chaos_experiment(seed=seed)
    second = chaos_experiment(seed=seed)
    assert first.trace == second.trace
    assert first.report.solution == second.report.solution
    assert first.report.dead_letters == second.report.dead_letters


def test_pipelined_campaign_is_seed_deterministic():
    # Faults land mid-batch on the pipelined data path; the replay must
    # still be identical.
    assert verify_chaos_determinism(seed=23, prefetch=4)


def test_random_plans_differ_across_seeds_but_replay_within_one():
    a = chaos_experiment(seed=5, random_plan=True)
    b = chaos_experiment(seed=5, random_plan=True)
    c = chaos_experiment(seed=6, random_plan=True)
    assert a.trace == b.trace
    assert a.trace != c.trace
    assert a.correct and c.correct


def test_default_plan_covers_all_failure_modes():
    plan = default_chaos_plan(["w1", "w2", "w3"])
    kinds = [e.kind for e in plan]
    assert kinds == ["worker-crash", "link-flap", "server-restart"]
