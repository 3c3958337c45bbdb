"""``python -m benchmarks.suite``: the same command line as ``run.py``."""

import sys

from benchmarks.suite.driver import main

sys.exit(main())
