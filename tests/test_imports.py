"""Every ``repro`` subpackage imports on its own, in a fresh interpreter.

An import cycle between packages hides inside one test process: the
first test module to import the framework loads both sides in the order
that works, and later modules import a finished package.  A fresh
interpreter per subpackage finds the cycle whichever side a user (or a
test file run alone) imports first.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__)
                     if info.ispkg)


def test_every_subpackage_is_listed():
    assert {"core", "jini", "tuplespace", "verify"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_imports_alone(name):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", f"import repro.{name}"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
