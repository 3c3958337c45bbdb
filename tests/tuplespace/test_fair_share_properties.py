"""Property tests on the space's weighted fair-share (DRR) dispatcher.

The headline invariant (ISSUE 8): with every tenant continuously
backlogged, long-run take grants converge to the configured weights.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core.entries import TaskEntry
from repro.errors import SpaceError
from repro.runtime import SimulatedRuntime
from repro.tuplespace import JavaSpace

import pytest

TENANTS = ("alice", "bob", "carol", "dave")
weights = st.sampled_from([0.5, 1.0, 2.0, 4.0])
share_maps = st.dictionaries(
    st.sampled_from(TENANTS), weights, min_size=2, max_size=4
)


def _with_space(fn):
    """Run ``fn(rt, space)`` inside a fresh simulated process."""
    runtime = SimulatedRuntime()
    try:
        space = JavaSpace(runtime)
        proc = runtime.kernel.spawn(lambda: fn(runtime, space), name="prop")
        runtime.kernel.run()
        return proc.result
    finally:
        runtime.shutdown()


def _seed_backlog(space, shares, per_tenant):
    task_id = 0
    for tenant in sorted(shares):
        for _ in range(per_tenant):
            space.write(TaskEntry(app_id="fair", task_id=task_id,
                                  payload=task_id, tenant=tenant,
                                  priority=0))
            task_id += 1


@settings(max_examples=25, deadline=None)
@given(shares=share_maps)
def test_drr_long_run_grants_converge_to_weights(shares):
    """Every tenant stays backlogged for T takes; grant fractions must
    land within 10% of the weight fractions (the DRR lag is bounded by
    one replenish cycle, far below that)."""
    total_weight = sum(shares.values())
    takes = 30 * len(shares)

    def body(rt, space):
        space.configure_fair_share(shares)
        # Backlog sized so no tenant drains before the last take.
        _seed_backlog(space, shares, per_tenant=takes)
        for _ in range(takes):
            assert space.take(TaskEntry(), timeout_ms=0) is not None
        return dict(space.fair_stats)

    stats = _with_space(body)
    granted = {t: stats.get(f"grants:{t}", 0) for t in shares}
    assert sum(granted.values()) == takes
    for tenant, weight in shares.items():
        expected = takes * weight / total_weight
        assert abs(granted[tenant] - expected) <= max(2.0, 0.1 * takes), (
            f"{tenant} (weight {weight}) got {granted[tenant]} grants, "
            f"expected ~{expected:.1f} of {takes}"
        )


def test_drr_splits_equal_tenants_exactly():
    """Eight equal, backlogged tenants and 240 wildcard takes: each gets
    exactly 30 grants, so Jain's fairness index (Σx)² / (n·Σx²) is 1.0."""
    shares = {f"t{i:02d}": 1.0 for i in range(8)}

    def body(rt, space):
        space.configure_fair_share(shares)
        _seed_backlog(space, shares, per_tenant=60)
        for _ in range(240):
            assert space.take(TaskEntry(), timeout_ms=0) is not None
        return dict(space.fair_stats)

    stats = _with_space(body)
    assert [stats.get(f"grants:{t}", 0) for t in shares] == [30] * 8


@settings(max_examples=15, deadline=None)
@given(shares=share_maps, takes=st.integers(1, 30))
def test_drr_preserves_fifo_within_a_tenant(shares, takes):
    """DRR reorders *across* tenants only: each tenant's own tasks come
    out in task_id (write) order."""

    def body(rt, space):
        space.configure_fair_share(shares)
        _seed_backlog(space, shares, per_tenant=takes)
        seen: dict[str, list[int]] = {}
        while True:
            entry = space.take(TaskEntry(), timeout_ms=0)
            if entry is None:
                return seen
            seen.setdefault(entry.tenant, []).append(entry.task_id)

    seen = _with_space(body)
    for tenant, ids in seen.items():
        assert ids == sorted(ids), f"{tenant} served out of FIFO order"


def test_drr_unknown_tenant_gets_default_share():
    shares = {"alice": 4.0}

    def body(rt, space):
        space.configure_fair_share(shares)
        _seed_backlog(space, {"alice": 4.0, "mallory": 1.0}, per_tenant=50)
        for _ in range(50):
            space.take(TaskEntry(), timeout_ms=0)
        return dict(space.fair_stats)

    stats = _with_space(body)
    # 4:1 weights over 50 grants → ~40 vs ~10.
    assert stats["grants:alice"] > 3 * stats["grants:mallory"]


def test_drr_grant_order_by_hand():
    """The exact grant sequence, worked by hand: a tenant holding a
    deficit of exactly 1.0 is served, and one whose queue drains loses
    the deficit it had left (classic DRR)."""
    def body(rt, space):
        # Quantum 1 / max share = 1: a round adds 0.75 to a, 1 to b, c.
        space.configure_fair_share({"a": 0.75, "b": 1.0, "c": 1.0})
        serial = iter(range(100))

        def write(tenant, count):
            for _ in range(count):
                space.write(TaskEntry("fair", next(serial), tenant=tenant))

        def takes(count):
            return [space.take(TaskEntry(), timeout_ms=0).tenant
                    for _ in range(count)]

        write("a", 1)
        write("b", 4)
        write("c", 4)
        # (.75, 1, 1) -> b; c; (1.5, 1, 1) -> a at .5, drained; b.
        first = takes(4)
        write("a", 3)
        # a's .5 is gone: c; (.75, 1, 1) -> b; c; (1.5, 1, 1) -> a;
        # b; c; (1.25, 1, 1) -> a; a alone.
        return first, takes(8)

    assert _with_space(body) == (["b", "c", "a", "b"],
                                 ["c", "b", "c", "a", "b", "c", "a", "a"])


def test_fair_share_rejects_non_positive_weights():
    def body(rt, space):
        with pytest.raises(SpaceError):
            space.configure_fair_share({"alice": 0.0})
        return True

    assert _with_space(body)
