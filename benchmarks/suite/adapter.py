"""The suite's only door into the program under test.

Every ``repro`` import of the benchmark lives here, so a rename inside
the program breaks one file.  Two rules keep a comparison between two
commits fair when the program's surface moved on one side of it:

* configs are built through :func:`make_config`, which drops (and names)
  any field ``FrameworkConfig`` no longer declares instead of raising;
* tracing boundaries are looked up through :func:`resolve`, which returns
  ``None`` for a symbol that is gone — the caller lists it as untraced,
  it never guesses a new name.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path
from typing import Any, Callable, Optional

_SRC = Path(__file__).resolve().parents[2] / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.application import Application, ClassLoadProfile, Task  # noqa: E402
from repro.core.entries import TaskEntry  # noqa: E402
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig  # noqa: E402
from repro.experiments.chaos import (  # noqa: E402
    chaos_experiment,
    coordination_chaos_experiment,
)
from repro.experiments.report import run_full_evaluation  # noqa: E402
from repro.node.cluster import testbed_small  # noqa: E402
from repro.runtime import SimulatedRuntime  # noqa: E402
from repro.sim.rng import RandomStreams  # noqa: E402
from repro.tuplespace.durable import DurableSpace  # noqa: E402
from repro.tuplespace.transaction import TransactionManager  # noqa: E402
from repro.tuplespace.wal import FileWalStore, WriteAheadLog  # noqa: E402

__all__ = [
    "StripJob", "TaskEntry", "build_farm", "chaos_experiment",
    "coordination_chaos_experiment", "make_config", "open_space",
    "patchable_modules", "prometheus_value", "recover_space", "resolve",
    "run_full_evaluation", "simulate", "subclasses_of",
]


# ------------------------------------------------------------------ config --

def make_config(**wanted: Any) -> tuple[FrameworkConfig, list[str]]:
    """A ``FrameworkConfig`` from the fields it still declares.

    Returns the config and the names that were asked for but are no
    longer fields (ROADMAP plans knob deletions; the side of a comparison
    that already deleted one must still run)."""
    declared = {f.name for f in dataclasses.fields(FrameworkConfig)}
    omitted = sorted(set(wanted) - declared)
    if omitted:
        print(f"make_config: FrameworkConfig does not declare {omitted}; "
              f"omitted", file=sys.stderr)
    kept = {k: v for k, v in wanted.items() if k in declared}
    return FrameworkConfig(**kept), omitted


# ---------------------------------------------------------------- strip job --

class StripJob(Application):
    """Raytrace-shaped job: a 600x600 plane cut into full-width strips.

    The suite's own copy (run_micro's is private to it and drops rows
    when 600 is not a multiple of the strip count).  Every row is covered
    exactly once for any ``strips``, so the solution has a closed form:
    ``WIDTH * sum(range(HEIGHT))``.  ``strips`` is mutable so a warm-up
    job can be smaller than the measured ones on the same framework.
    """

    app_id = "bench-strips"
    WIDTH = 600
    HEIGHT = 600
    SOLUTION = WIDTH * (HEIGHT * (HEIGHT - 1) // 2)     # 107 820 000

    def __init__(self, strips: int) -> None:
        self.strips = strips

    def plan(self) -> list[Task]:
        n, h, w = self.strips, self.HEIGHT, self.WIDTH
        return [Task(task_id=i,
                     payload={"region": (0, i * h // n, w, (i + 1) * h // n)})
                for i in range(n)]

    def execute(self, payload: Any) -> Any:
        x0, y0, x1, y1 = payload["region"]
        return [(x1 - x0) * y for y in range(y0, y1)]

    def aggregate(self, results: dict[int, Any]) -> Any:
        return sum(sum(rows) for rows in results.values())

    def task_cost_ms(self, task: Task) -> float:
        return 2_500.0

    def planning_cost_ms(self, task: Task) -> float:
        return 20.0

    def aggregation_cost_ms(self, task_id: int, result: Any) -> float:
        return 30.0

    def classload_profile(self) -> ClassLoadProfile:
        return ClassLoadProfile(work_ref_ms=100.0, demand_percent=80.0,
                                bundle_bytes=50_000)


def build_farm(runtime: SimulatedRuntime, seed: int, app: Application,
               workers: int, **wanted: Any):
    """A standing framework on the small testbed: ``(cluster, framework,
    omitted config fields)``.  Not started."""
    config, omitted = make_config(**wanted)
    cluster = testbed_small(runtime, workers=workers,
                            streams=RandomStreams(seed))
    framework = AdaptiveClusterFramework(runtime, cluster, app, config)
    return cluster, framework, omitted


def simulate(body: Callable[[SimulatedRuntime], Any]) -> Any:
    """Run ``body`` as the root process of a fresh simulated runtime.

    Same contract as ``repro.experiments.harness.run_simulation``; kept
    here so the root process belongs to the benchmark (the tracer labels
    a process by the module of its function) and not to the harness."""
    runtime = SimulatedRuntime()
    try:
        proc = runtime.kernel.spawn(lambda: body(runtime), name="bench")
        runtime.kernel.run_until_idle()
        if proc.error is not None:
            raise proc.error
        if not proc.finished:
            raise RuntimeError("benchmark root process never completed")
        return proc.result
    finally:
        runtime.shutdown()


# ------------------------------------------------------------ durable space --

_SPACE_OPTS = dict(snapshot_every=64, codec="compact")


def _file_store(path: str) -> FileWalStore:
    return FileWalStore(path, fsync_policy="group", group_size=64,
                        codec="compact")


def open_space(runtime: SimulatedRuntime, path: str):
    """A fresh file-backed durable space: ``(space, store, txn manager)``."""
    store = _file_store(path)
    space = DurableSpace(runtime, wal=WriteAheadLog(store), **_SPACE_OPTS)
    return space, store, TransactionManager(runtime)


def recover_space(runtime: SimulatedRuntime, path: str):
    """Reopen the on-disk store and replay it: ``(space, store)``."""
    store = _file_store(path)
    return DurableSpace.recover(runtime, store, **_SPACE_OPTS), store


# ------------------------------------------------- outside-in tracing hooks --

def resolve(target: str) -> Optional[tuple[Any, str, Any]]:
    """``"pkg.module:Owner.attr"`` → ``(owner, attr, raw attribute)``.

    The raw attribute comes from the owner's ``__dict__`` (so a
    ``classmethod`` stays one).  ``None`` when any step is missing."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


def patchable_modules() -> list[Any]:
    """Loaded modules whose globals may alias a traced function
    (``from x import f`` copies the reference): the program's and ours."""
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro.")
                 or name == __name__)]


def subclasses_of(cls: type) -> list[type]:
    found, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.append(sub)
            stack.append(sub)
    return found


# ------------------------------------------------------------ stats surface --

def prometheus_value(text: str, name: str) -> float:
    """Sum of the samples named ``name`` in a Prometheus text dump."""
    total = 0.0
    for line in text.splitlines():
        head, _, value = line.rpartition(" ")
        if head == name or head.startswith(name + "{"):
            total += float(value)
    return total
