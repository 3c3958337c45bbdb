"""Experiment 3 harness: behaviour with 0 %/25 %/50 % of workers loaded."""

from __future__ import annotations

import pytest

from repro.experiments import (
    dynamics_experiment,
    make_prefetch_app,
    make_raytrace_app,
    prefetch_cluster,
    raytrace_cluster,
)


@pytest.fixture(scope="module")
def raytrace_dynamics():
    return dynamics_experiment(make_raytrace_app, raytrace_cluster, workers=4)


def test_three_load_conditions(raytrace_dynamics):
    assert [r.loaded_fraction for r in raytrace_dynamics.rows] == [0.0, 0.25, 0.5]
    assert [r.loaded_workers for r in raytrace_dynamics.rows] == [0, 1, 2]


def test_parallel_time_grows_as_workers_are_lost(raytrace_dynamics):
    times = [r.total_parallel_ms for r in raytrace_dynamics.rows]
    assert times[0] < times[1] < times[2]


def test_master_overhead_constant_across_load_conditions(raytrace_dynamics):
    """"the maximum master overhead [is] expected to remain constant"."""
    overheads = [r.max_master_overhead_ms for r in raytrace_dynamics.rows]
    assert max(overheads) == pytest.approx(min(overheads), rel=0.2)


def test_loaded_runs_match_smaller_unloaded_clusters(raytrace_dynamics):
    """Losing k of 4 workers ≈ computing with 4−k workers."""
    loaded_half = raytrace_dynamics.rows[2]          # 2 of 4 loaded
    two_workers = dynamics_experiment(
        make_raytrace_app, raytrace_cluster, workers=2).rows[0]
    assert loaded_half.max_worker_ms == pytest.approx(
        two_workers.max_worker_ms, rel=0.15
    )


def test_prefetch_less_sensitive_to_lost_workers():
    """Aggregation-bound app: losing workers hurts less than compute-bound."""
    result = dynamics_experiment(make_prefetch_app, prefetch_cluster, workers=4)
    slowdown = result.rows[2].total_parallel_ms / result.rows[0].total_parallel_ms
    assert slowdown < 2.2


def test_table_formats(raytrace_dynamics):
    table = raytrace_dynamics.format_table()
    assert "loaded" in table
    assert "50%" in table
