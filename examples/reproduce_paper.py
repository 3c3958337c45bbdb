#!/usr/bin/env python
"""Regenerate the paper's entire evaluation section in one run.

Prints Figures 6–11 (as tables/series), Experiment 3 and Table 2 — the
same artifacts the benchmarks assert on, gathered in one report.

Run:  python examples/reproduce_paper.py            # ~10 s
"""

from __future__ import annotations

import sys
import time

from repro.experiments.report import run_full_evaluation


def main() -> None:
    started = time.time()
    report = run_full_evaluation(
        progress=lambda msg: print(f"  … {msg}", file=sys.stderr),
    )
    print(report.render())
    print(f"\n[regenerated in {time.time() - started:.1f} s of real time]",
          file=sys.stderr)


if __name__ == "__main__":
    main()
