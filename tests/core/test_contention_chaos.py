"""Multi-tenant contention campaign: admission, fair share, preemption.

Small-scale versions of the ISSUE 8 acceptance runs plus the two
robustness properties: isolation (victim throughput survives an
aggressor flooding 10x its quota) and exactly-once accounting under
preemption composed with kill/pause nemesis faults.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.experiments.chaos import (
    AGGRESSOR,
    VICTIM,
    contention_chaos_experiment,
    contention_isolation,
    verify_contention_determinism,
)
from repro.faults import FaultEvent, FaultKind, FaultPlan

import pytest


def test_contention_every_tenant_correct_and_consistent():
    r = contention_chaos_experiment(seed=42, tenants=8)
    assert r.correct
    assert r.consistent
    # The flood was actually refused, not absorbed.
    assert r.admission_totals["rejected"] > 0
    assert r.aggressor_admission["rejected"] > 0
    # Every tenant got space grants through the DRR dispatcher.
    assert VICTIM in r.grants and r.grants[VICTIM] >= 24


def test_contention_sharded_scatter_stays_exactly_once():
    # Partial admission over a scatter write must not duplicate the
    # admitted sub-group on retry (AdmissionError.admitted_entries).
    r = contention_chaos_experiment(seed=7, tenants=6, shards=2)
    assert r.correct
    assert r.consistent


def test_rejected_ops_left_no_side_effects():
    r = contention_chaos_experiment(seed=42, tenants=8)
    assert r.history_report is not None
    assert r.history_report.by_status.get("rejected", 0) > 0
    assert r.history_report.ok  # checker check 4: no rejected-write effects


def test_victim_keeps_its_throughput_under_flood():
    baseline, contended, ratio = contention_isolation(seed=42, tenants=8)
    assert baseline.correct and contended.correct
    assert ratio >= 0.8, (
        f"victim degraded to {ratio:.2f}x of its isolated throughput"
    )


def test_contention_campaign_is_deterministic():
    assert verify_contention_determinism(seed=42, tenants=8)


def test_preemption_fires_and_preserves_accounting():
    # Four shards deep in a four-task pipeline: the low-priority
    # pipeline is caught holding a batch while urgent backlog queues.
    r = contention_chaos_experiment(seed=3, tenants=6, shards=4,
                                    prefetch=4)
    assert r.preemptions > 0
    assert r.tasks_released > 0
    assert any(name == "tenant-preempted" for _, name, _ in r.trace)
    assert r.correct
    assert r.consistent


def test_aggressor_failure_is_recorded_not_raised():
    r = contention_chaos_experiment(seed=42, tenants=8)
    # Whatever happened to the aggressor, the victims' run must not
    # have been unwound by it.
    assert r.correct
    assert AGGRESSOR in r.errors or AGGRESSOR in r.reports


def test_contention_needs_two_tenants():
    with pytest.raises(ValueError):
        contention_chaos_experiment(tenants=1)


_fault_plans = st.sampled_from(["crash", "pause"])


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 9_999),
    kind=_fault_plans,
    worker=st.integers(1, 4),
    at_ms=st.sampled_from([800.0, 1_500.0, 2_500.0]),
)
def test_preemption_exactly_once_under_nemesis_faults(seed, kind, worker,
                                                      at_ms):
    """Preemption (four shards, pipeline depth four) composed with a
    worker crash or pause must
    never lose or double-count a task: every non-aggressor tenant's
    solution stays exact and the op history checks out."""
    plan = FaultPlan()
    if kind == "crash":
        plan.add(FaultEvent(at_ms, FaultKind.WORKER_CRASH,
                            target=f"worker{worker}"))
    else:
        plan.add(FaultEvent(at_ms, FaultKind.PAUSE,
                            target=f"worker{worker}",
                            duration_ms=1_200.0))
    r = contention_chaos_experiment(
        seed=seed, tenants=5, shards=4, prefetch=4, fault_plan=plan,
    )
    assert r.faults_injected == 1
    assert r.correct, f"tenant lost work under {kind}@{at_ms} (seed {seed})"
    assert r.consistent
