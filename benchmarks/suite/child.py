"""One measuring process: pin, set up, time the units, print one JSON line.

Spawned by :mod:`driver`, never run by hand.  ``setup_s`` runs from the
moment the driver spawned this process (``--spawned-at``, on the
system-wide monotonic clock) to the first timed unit, so it contains
the interpreter start, the imports, the deployment and the warm-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Units whose full span records are kept by the traced run.
KEEP_UNITS = 3
#: A speed probe is reused for this long, so probing stays a few percent
#: of a window of short units.
PROBE_EVERY_S = 0.1


def probe_speed() -> float:
    """Seconds a fixed pure-Python kernel takes on this CPU right now.

    The sandbox's two CPUs share a core with each other and with other
    tenants; whatever the host places beside us slows this CPU by up to
    a third, for seconds or for many minutes.  The kernel slows with it,
    so ``metrics`` can express every time at one reference speed."""
    started = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    return time.perf_counter() - started


class Run:
    """What a workload body talks to: the window, the units, the oracle."""

    def __init__(self, seed: int, units: int, first_unit: int,
                 spawned_at_ns: int, tracer: Any, break_oracle: bool,
                 self_contained: bool) -> None:
        self.seed = seed
        self.units = units
        #: Index of our first unit within the whole run: tells the
        #: measuring processes of one run apart (seed derivation).
        self.first_unit = first_unit
        self.tracer = tracer
        #: Units build and tear down their own deployments, so the
        #: tracer may bank and release the instances it noted per unit.
        self.self_contained = self_contained
        self.scratch_dir = str(OUT_DIR / "tmp")
        self.unit_s: list[float] = []
        self.unit_cpu_s: list[float] = []
        #: ``probe_s[i]`` and ``probe_s[i + 1]`` bracket unit ``i``;
        #: ``probe_s[0]`` also ends the set-up.
        self.probe_s: list[float] = []
        self._probed_at = 0.0
        self.virtual_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extra: dict[str, Any] = {}
        self.omitted_config: list[str] = []
        self.window: dict[str, Any] = {}
        self._spawned_at_ns = spawned_at_ns
        self._break_oracle = break_oracle
        self._mark: Optional[dict[str, Any]] = None

    # -- oracle ---------------------------------------------------------------

    def oracle(self, expected: Any) -> Any:
        """The expected value — flipped under ``--break-oracle``, which
        exists so a test can prove that a wrong answer fails the run."""
        if not self._break_oracle:
            return expected
        return (not expected) if isinstance(expected, bool) else expected + 1

    def tally(self, ops: int, failed: int = 0, why: str = "") -> None:
        self.attempted += ops
        if failed:
            self.failed += failed
            if len(self.failures) < 20:
                self.failures.append(why)

    # -- window ---------------------------------------------------------------

    def _usage(self) -> dict[str, Any]:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "cpu_user_s": usage.ru_utime, "cpu_sys_s": usage.ru_stime,
            "ctx_switches": usage.ru_nvcsw + usage.ru_nivcsw,
            "gc_collections": sum(g["collections"] for g in gc.get_stats()),
            "process_cpu_ns": time.process_time_ns(),
            "trace": self.tracer.snapshot() if self.tracer else None,
        }

    def start_window(self) -> None:
        self._mark = self._usage()
        self.window["setup_s"] = (
            time.monotonic_ns() - self._spawned_at_ns) / 1e9

    def end_window(self) -> None:
        self._probe()
        end, start = self._usage(), self._mark
        if start is None:
            raise RuntimeError("end_window() before start_window()")
        for key in ("cpu_user_s", "cpu_sys_s", "ctx_switches",
                    "gc_collections", "process_cpu_ns"):
            self.window[key] = end[key] - start[key]
        if self.tracer is not None:
            self.window["trace"] = self.tracer.delta(start["trace"],
                                                     end["trace"])
            self.window["setup_self_ns"] = start["trace"]["self_ns"]

    def _probe(self) -> None:
        if self.probe_s and (time.perf_counter() - self._probed_at
                             < PROBE_EVERY_S):
            self.probe_s.append(self.probe_s[-1])
        else:
            self.probe_s.append(probe_speed())
            self._probed_at = time.perf_counter()

    @contextmanager
    def unit(self) -> Iterator[None]:
        self._probe()
        tracer = self.tracer
        if tracer is not None:
            tracer.unit = len(self.unit_s)
            tracer.recording = tracer.unit < KEEP_UNITS
        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            yield
        finally:
            self.unit_s.append(time.perf_counter() - started)
            self.unit_cpu_s.append(time.process_time() - cpu_started)
            if tracer is not None:
                tracer.recording = False
                if self.self_contained:
                    tracer.fold_census()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--first-unit", type=int, default=0)
    parser.add_argument("--cpu", type=int, default=-1,
                        help="CPU to pin to; -1 leaves the process unpinned")
    parser.add_argument("--spawned-at", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--break-oracle", action="store_true")
    args = parser.parse_args(argv)

    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    from benchmarks.suite import adapter, tracing
    from benchmarks.suite.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(adapter)
    run = Run(args.seed, args.units, args.first_unit, args.spawned_at,
              tracer, args.break_oracle, workload.self_contained)
    workload.body(run)

    result = {
        "workload": workload.name, "seed": args.seed,
        "units": len(run.unit_s), "unit_s": run.unit_s,
        "unit_cpu_s": run.unit_cpu_s, "probe_s": run.probe_s,
        "virtual_ms": run.virtual_ms, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures,
        "extra": run.extra, "omitted_config": run.omitted_config,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        **run.window,
    }
    if tracer is not None:
        result["untraced_boundaries"] = tracer.untraced
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_{workload.name}.json"
        with open(spans_path, "w") as handle:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "units_kept": KEEP_UNITS,
                       "dropped_records": tracer.dropped_records,
                       "columns": tracer.RECORD_COLUMNS,
                       "spans": tracer.records}, handle)
        result["spans_file"] = str(spans_path)
        result["spans_kept"] = len(tracer.records)
        result["spans_dropped"] = tracer.dropped_records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
