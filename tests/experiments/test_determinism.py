"""Reproducibility: identical runs produce bit-identical measurements.

The whole experimental methodology rests on this — virtual time plus
seeded randomness means every figure regenerates exactly.
"""

from __future__ import annotations

from repro.experiments import (
    adaptation_experiment,
    dynamics_experiment,
    make_raytrace_app,
    raytrace_cluster,
    scalability_experiment,
)


def test_scalability_rows_bit_identical():
    a = scalability_experiment(make_raytrace_app, raytrace_cluster, [1, 3])
    b = scalability_experiment(make_raytrace_app, raytrace_cluster, [1, 3])
    assert a.rows == b.rows


def test_adaptation_fully_deterministic():
    a = adaptation_experiment(make_raytrace_app, raytrace_cluster)
    b = adaptation_experiment(make_raytrace_app, raytrace_cluster)
    assert a.signals_in_order == b.signals_in_order
    assert a.reactions == b.reactions
    assert a.cpu_history == b.cpu_history
    assert a.snmp_polls == b.snmp_polls


def test_dynamics_deterministic():
    a = dynamics_experiment(make_raytrace_app, raytrace_cluster, workers=3)
    b = dynamics_experiment(make_raytrace_app, raytrace_cluster, workers=3)
    assert a.rows == b.rows


def test_different_seeds_change_stochastic_details_only():
    """Seeds perturb load-sim jitter, not the structural outcome."""
    a = adaptation_experiment(make_raytrace_app, raytrace_cluster, seed=1)
    b = adaptation_experiment(make_raytrace_app, raytrace_cluster, seed=2)
    assert a.signals_in_order == b.signals_in_order == [
        "start", "stop", "start", "pause", "resume",
    ]
    assert a.class_loads == b.class_loads == 2
