"""Field-value index: speedup must never change matching semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tuplespace import JavaSpace
from tests.conftest import run_in_sim
from tests.tuplespace.entries import TaskEntry


@pytest.fixture()
def space(rt):
    return JavaSpace(rt)


def test_indexed_lookup_returns_fifo_within_matches(rt, space):
    def proc():
        for i in range(20):
            space.write(TaskEntry(f"app{i % 4}", i, None))
        return [space.take(TaskEntry(app="app2"), timeout_ms=0.0).task_id
                for _ in range(5)]

    assert run_in_sim(rt, proc) == [2, 6, 10, 14, 18]


def test_index_updated_on_take(rt, space):
    def proc():
        space.write(TaskEntry("a", 1, None))
        space.take(TaskEntry(app="a"), timeout_ms=0.0)
        # A stale index entry would make this return a ghost.
        return space.take(TaskEntry(app="a"), timeout_ms=0.0)

    assert run_in_sim(rt, proc) is None


def test_index_updated_on_lease_expiry(rt, space):
    def proc():
        space.write(TaskEntry("a", 1, None), lease_ms=50.0)
        rt.sleep(100.0)
        return space.take(TaskEntry(app="a"), timeout_ms=0.0)

    assert run_in_sim(rt, proc) is None


def test_unhashable_template_field_falls_back_to_scan(rt, space):
    def proc():
        space.write(TaskEntry("a", 1, [1, 2, 3]))
        return space.take(TaskEntry(payload=[1, 2, 3]), timeout_ms=0.0)

    entry = run_in_sim(rt, proc)
    assert entry is not None
    assert entry.task_id == 1


def test_array_payload_still_matches_hashable_template_value(rt, space):
    """The poisoned-field case: an ndarray payload equals a tuple template
    under values_equal, which a naive index would miss."""
    def proc():
        space.write(TaskEntry("a", 1, np.array([1, 2])))
        return space.take(TaskEntry(payload=(1, 2)), timeout_ms=0.0)

    entry = run_in_sim(rt, proc)
    assert entry is not None
    assert list(entry.payload) == [1, 2]


def test_unhashable_template_value_is_confirmed_not_looked_up(rt, space):
    """Every stored payload is hashable, so the payload index builds; the
    template's array value cannot be a dict key and must go to the
    confirm, where it equals the stored tuple under values_equal."""
    def proc():
        space.write(TaskEntry("a", 1, (1, 2)))
        return space.take(TaskEntry(payload=np.array([1, 2])), timeout_ms=0.0)

    entry = run_in_sim(rt, proc)
    assert entry is not None and entry.task_id == 1


def test_conjunction_of_indexed_fields(rt, space):
    def proc():
        for app in ("x", "y"):
            for task_id in range(3):
                space.write(TaskEntry(app, task_id, None))
        hit = space.take(TaskEntry(app="y", task_id=2), timeout_ms=0.0)
        miss = space.take(TaskEntry(app="y", task_id=9), timeout_ms=0.0)
        return hit.app, hit.task_id, miss

    assert run_in_sim(rt, proc) == ("y", 2, None)


def test_index_definite_miss_short_circuits(rt, space):
    def proc():
        for i in range(10):
            space.write(TaskEntry("a", i, None))
        return space.take(TaskEntry(app="never-written"), timeout_ms=0.0)

    assert run_in_sim(rt, proc) is None
