"""Table 2: the measured classification must match the paper's grades."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.calibration import make_raytrace_app, raytrace_cluster
from repro.experiments.classify import (
    classify_applications,
    classify_one,
    format_table,
)
from repro.experiments.scalability import scalability_experiment


@pytest.fixture(scope="module")
def rows():
    return {r.app_id: r for r in classify_applications()}


@pytest.fixture(scope="module")
def raytrace_sweep():
    """Fig 7's sweep: 1..5 workers, as the full evaluation runs it."""
    return scalability_experiment(make_raytrace_app, raytrace_cluster,
                                  [1, 2, 3, 4, 5])


def test_grading_from_the_full_sweep_equals_a_fresh_two_point_sweep(
        rows, raytrace_sweep):
    assert classify_one("ray-tracing", sweep=raytrace_sweep) == rows["ray-tracing"]


@pytest.mark.parametrize("keep", [slice(1, None), slice(None, -1)],
                         ids=["first-row-not-1-worker", "last-row-not-max"])
def test_a_sweep_not_spanning_1_to_max_workers_is_refused(raytrace_sweep, keep):
    short = dataclasses.replace(raytrace_sweep, rows=raytrace_sweep.rows[keep])
    with pytest.raises(ValueError, match="sweep must"):
        classify_one("ray-tracing", sweep=short)


def test_a_sweep_of_another_app_is_refused(raytrace_sweep):
    with pytest.raises(ValueError, match="ray-tracing"):
        classify_one("web-prefetch", sweep=raytrace_sweep)


def test_scalability_grades_match_table2(rows):
    assert rows["option-pricing"].scalability == "Medium"
    assert rows["ray-tracing"].scalability == "High"
    assert rows["web-prefetch"].scalability == "Low"


def test_cpu_grades_match_table2(rows):
    assert rows["option-pricing"].cpu == "Adaptable"
    assert rows["ray-tracing"].cpu == "High"
    assert rows["web-prefetch"].cpu == "Low"


def test_task_dependency_matches_table2(rows):
    """"Task Dependency: No / No / Yes" — only pre-fetching has
    inter-iteration dependencies."""
    assert rows["option-pricing"].task_dependency is False
    assert rows["ray-tracing"].task_dependency is False
    assert rows["web-prefetch"].task_dependency is True


def test_memory_measured_from_real_payloads(rows):
    # The ray tracer's strip results are "relatively large" pixel arrays.
    assert rows["ray-tracing"].memory == "High"
    assert rows["ray-tracing"].payload_bytes > 30_000
    assert rows["option-pricing"].memory == "Low"


def test_format_table_contains_all_apps(rows):
    table = format_table(list(rows.values()))
    for app_id in rows:
        assert app_id in table
