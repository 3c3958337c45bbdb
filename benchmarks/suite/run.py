#!/usr/bin/env python3
"""Entry point named by BENCHMARK.json.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of any checkout; finds the program under ``src/``
itself, so no ``PYTHONPATH`` is needed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.suite.driver import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
