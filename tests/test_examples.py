"""Smoke tests: every example script runs end to end.

Examples are the public face of the library; each must execute against
the real stack.  Run via ``runpy`` so they execute exactly as a user's
``python examples/<name>.py`` would.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_quickstart_estimates_pi(capsys):
    out = run_example("quickstart.py", [], capsys)
    assert "π ≈ 3.14" in out
    assert "tasks per worker" in out


def test_option_pricing_brackets_black_scholes(capsys):
    out = run_example("option_pricing.py", [], capsys)
    assert "Broadie–Glasserman price" in out
    assert "inside the interval" in out


def test_ray_tracing_writes_matching_image(tmp_path, capsys):
    target = tmp_path / "out.ppm"
    out = run_example("ray_tracing.py", [str(target)], capsys)
    assert "matches sequential render: True" in out
    data = target.read_bytes()
    assert data.startswith(b"P6\n600 600\n255\n")
    assert len(data) == len(b"P6\n600 600\n255\n") + 600 * 600 * 3


def test_web_prefetch_improves_hit_rate(capsys):
    out = run_example("web_prefetch.py", [], capsys)
    assert "L1 distance to converged PageRank" in out
    assert "with rank-based pre-fetching" in out


def test_adaptive_cluster_demo_prints_cycle(capsys):
    out = run_example("adaptive_cluster_demo.py", ["web-prefetch"], capsys)
    assert "start → stop → start → pause → resume" in out
    assert "class loads  : 2" in out


def test_reproduce_paper_quick(capsys):
    out = run_example("reproduce_paper.py", [], capsys)
    assert "Figure 9(b)" in out
    assert "Table 2" in out


def test_fault_tolerance_survives_crashes(capsys):
    out = run_example("fault_tolerance.py", [], capsys)
    assert "all 100 tasks completed" in out
    assert "despite 4 crashes" in out
    assert "inside" in out
