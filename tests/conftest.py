"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.runtime import SimulatedRuntime


@pytest.fixture(scope="session")
def golden():
    """``tools/golden.py``, the reader and checker of the golden table
    ``tests/golden.txt`` (loaded from its path: it is a script)."""
    spec = importlib.util.spec_from_file_location(
        "golden", Path(__file__).resolve().parent.parent / "tools"
        / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def rt():
    """A fresh simulated runtime, shut down after the test."""
    runtime = SimulatedRuntime()
    yield runtime
    runtime.shutdown()


def run_in_sim(runtime: SimulatedRuntime, fn, *, until=None):
    """Spawn ``fn`` as the root simulated process and run to completion.

    Uses ``run_until_idle`` so forever-blocked server loops (space servers,
    SNMP agents) don't trip deadlock detection.  Returns the process
    result; re-raises any error recorded by the kernel.
    """
    proc = runtime.kernel.spawn(fn, name="test-root")
    if until is not None:
        runtime.kernel.run(until=until)
    else:
        runtime.kernel.run_until_idle()
    if proc.error is not None:  # pragma: no cover - kernel re-raises first
        raise proc.error
    assert proc.finished, "root test process never completed (blocked forever?)"
    return proc.result
