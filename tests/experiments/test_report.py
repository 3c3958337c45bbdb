"""Full-evaluation report assembly."""

from __future__ import annotations

import hashlib

import pytest

import repro.apps.prefetch.app as prefetch_app
from repro.experiments import adaptation, dynamics, scalability
from repro.experiments.report import EvaluationReport, run_full_evaluation


@pytest.fixture(scope="module")
def quick_report():
    progress: list[str] = []
    report = run_full_evaluation(
        scalability=False, dynamics=False, progress=progress.append
    )
    return report, progress


def test_quick_report_has_adaptation_and_table2(quick_report):
    report, _ = quick_report
    assert set(report.adaptation) == {"option-pricing", "ray-tracing",
                                      "web-prefetch"}
    assert len(report.classification) == 3
    assert report.scalability == {}
    assert report.dynamics == {}


def test_progress_callback_narrates_stages(quick_report):
    _, progress = quick_report
    assert any("adaptation" in msg for msg in progress)
    assert any("Table 2" in msg for msg in progress)


def test_render_mentions_each_figure(quick_report):
    report, _ = quick_report
    text = report.render()
    for fragment in ("Figure 9(b)", "Figure 10(b)", "Figure 11(b)",
                     "Table 2", "signal cycle"):
        assert fragment in text


def test_empty_report_renders_empty():
    assert EvaluationReport().render() == ""


#: Σ parallel_ms of the Fig 6-8 rows + Σ total_parallel_ms of the Exp 3
#: rows, unrounded: the report prints whole milliseconds, so a shift of a
#: few µs per transfer (e.g. a payload pickled 4 bytes shorter) moves this
#: and not the sha.
VIRTUAL_MS_REPR = "899203.1715181521"


def test_full_evaluation_report_is_pinned(monkeypatch, golden):
    calls = {"run_simulation": 0, "generate_cluster": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (scalability, adaptation, dynamics):
        counting(module, "run_simulation")
    counting(prefetch_app, "generate_cluster")
    prefetch_app._generated_inputs.cache_clear()

    report = run_full_evaluation()
    # The sha256 of the full evaluation's rendered report (Figs 6-11,
    # Exp 3, Table 2) is the golden table's `repro all` row, which
    # prints the report and a newline.  Every modelled result feeds it,
    # so any change that moves a virtual instant, a message size or a
    # random draw shows up here; one that means to re-pins the row.
    pinned = {command: digest for digest, command in golden.read_table()}
    stdout = report.render() + "\n"
    assert hashlib.sha256(stdout.encode()).hexdigest() == pinned["repro all"]
    virtual_ms = (
        sum(row.parallel_ms for sweep in report.scalability.values()
            for row in sweep.rows)
        + sum(row.total_parallel_ms for result in report.dynamics.values()
              for row in result.rows))
    assert repr(virtual_ms) == VIRTUAL_MS_REPR
    # 23 sweep points + 3 adaptation runs + 9 Exp 3 runs; Table 2 is
    # graded from the sweeps, and the 500-page site is generated once.
    assert calls == {"run_simulation": 35, "generate_cluster": 1}
