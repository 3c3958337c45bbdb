"""Shared experiment plumbing: one isolated simulation per run."""

from __future__ import annotations

from typing import Any, Callable

from repro.runtime import SimulatedRuntime

__all__ = ["run_simulation"]


def run_simulation(body: Callable[[SimulatedRuntime], Any]) -> Any:
    """Run ``body`` as the root process of a fresh simulated runtime.

    The kernel is always shut down afterwards (no leaked threads across
    sweep points), and process errors re-raise in the caller.
    """
    runtime = SimulatedRuntime()
    try:
        proc = runtime.kernel.spawn(lambda: body(runtime), name="experiment")
        runtime.kernel.run_until_idle()
        if proc.error is not None:  # pragma: no cover - kernel re-raises first
            raise proc.error
        if not proc.finished:
            raise RuntimeError("experiment root process never completed")
        return proc.result
    finally:
        runtime.shutdown()
