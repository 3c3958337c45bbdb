"""Command line of the suite: spawn pinned measuring processes, pool, report.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.suite [--seed N] [--workload W]
                                               [--trace] [--sets K]

One workload: prints every metric by name with unit and sample count,
then — as the last line — the JSON object of the benchmark contract.
No ``--workload``: runs all six; ``--sets K`` repeats the untraced set
K times and checks the sets agree within the suite's own bounds.

A run is split over :data:`PROCESSES` fresh processes, each pinned to
the same CPU and each doing its own set-up: ``setup_s`` is the median of
real set-ups, and a per-process effect (memory layout) does not decide
the result.  Host times are reported at reference speed and as medians
over the pooled units (see ``metrics.PROBE_REF_S``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from benchmarks.suite import metrics
from benchmarks.suite.child import OUT_DIR
from benchmarks.suite.workloads import WORKLOADS, Workload

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
BASELINE = SUITE_DIR / "baseline.json"
PROCESSES = 3
RUN_SECONDS = 10
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------- children --

def _pick_cpu(no_pin: bool) -> int:
    """The CPU every measuring process is pinned to; -1 = unpinned."""
    if no_pin:
        return -1
    if not hasattr(os, "sched_setaffinity"):
        raise SystemExit("cannot pin on this platform; pass --no-pin to run "
                         "unpinned (host-time metrics are then marked so)")
    return min(os.sched_getaffinity(0))


def _spawn(workload: Workload, seed: int, units: int, first_unit: int,
           cpu: int, trace: bool, break_oracle: bool) -> dict[str, Any]:
    command = [
        sys.executable, str(SUITE_DIR / "child.py"),
        "--workload", workload.name, "--seed", str(seed),
        "--units", str(units), "--first-unit", str(first_unit),
        "--cpu", str(cpu),
        "--trace", str(int(trace)),
        "--spawned-at", str(time.monotonic_ns()),
    ]
    if break_oracle:
        command.append("--break-oracle")
    # A fixed hash seed keeps set/dict orders, and with them the exact
    # metrics, identical between processes.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload.name}: measuring process exited with code "
            f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _split(units: int, parts: int) -> list[int]:
    base, extra = divmod(units, parts)
    return [n for n in (base + (i < extra) for i in range(parts)) if n]


def measure(workload: Workload, seed: int, units: int, cpu: int,
            trace: bool, break_oracle: bool = False) -> dict[str, Any]:
    """One run of one workload.

    Untraced: ``units`` over up to :data:`PROCESSES` processes.  Traced:
    a third of the units untraced, then the same count traced, so the
    two can be compared; per-layer values come from the traced process
    only and no end-to-end value does."""
    shares = _split(units, PROCESSES)
    if trace:
        shares = shares[:1]
    children, first_unit = [], 0
    for share in shares:
        children.append(_spawn(workload, seed, share, first_unit, cpu,
                               False, break_oracle))
        first_unit += share
    result = metrics.pool_untraced(workload.name, children)
    result["record"] = {
        "workload": workload.name, "seed": seed,
        "units": [c["units"] for c in children],
        "cpu_affinity": children[0]["cpu_affinity"], "pinned": cpu >= 0,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": _commit(),
        "omitted_config": children[0]["omitted_config"],
    }
    # A workload whose output must not depend on the process reports
    # its digest; the processes of one run have to agree on it.
    if len({c["extra"].get("output_sha256") for c in children}) > 1:
        result["failed"] += 1
        result["failures"].append(
            "output differs between measuring processes")
    if trace:
        traced = _spawn(workload, seed, shares[0], 0, cpu, True,
                        break_oracle)
        result["layers"] = metrics.layer_values(traced, result)
        # Everything the layer values were derived from, for inspection:
        # self time per layer, calls per boundary and caller, busy/wall
        # time and exceptions per boundary, tallies and census counters.
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"aggregates_{workload.name}.json").write_text(
            json.dumps(traced["trace"], indent=1, sort_keys=True))
        result["record"].update(
            untraced_boundaries=traced["untraced_boundaries"],
            spans_file=traced["spans_file"], spans_kept=traced["spans_kept"],
            spans_dropped=traced["spans_dropped"])
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["failures"] += traced["failures"]
    return result


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                           "HEAD"], stdout=subprocess.PIPE, text=True)
    return done.stdout.strip() or "unknown"


# ---------------------------------------------------------------- reporting --

def _print_result(result: dict[str, Any]) -> None:
    record = result["record"]
    print("# " + json.dumps(record))
    unpinned = "" if record["pinned"] else "  [unpinned]"
    for metric in metrics.END_TO_END:
        if metric.name in result["values"]:
            exact = "  (exact)" if metric.exact else unpinned
            print(f"{metric.name:<44} {result['values'][metric.name]:>16.6g} "
                  f"{metric.unit:<10} n={result['n'][metric.name]}{exact}")
    for name, value in result.get("layers", result["host"]).items():
        print(f"{name:<44} {value:>16.6g} {metrics.UNITS[name]}")
    for failure in result["failures"]:
        print(f"FAILED CHECK: {failure}")


def _contract_line(result: dict[str, Any], trace: bool) -> str:
    """The one JSON object the benchmark contract asks for."""
    if trace:
        values = {m.name: result["values"].get(m.name, 0.0)
                  for m in metrics.END_TO_END if not m.gated}
        values.update(result["layers"])
    else:
        values = {m.name: result["values"][m.name]
                  for m in metrics.END_TO_END if m.gated}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    })


def _agreement(sets: list[dict[str, dict[str, Any]]]) -> tuple[list, bool]:
    """Per workload × end-to-end metric: the values of every set, their
    spread as a share of their median, the bound, and whether they agree
    (an exact metric must not differ at all)."""
    rows, agreed = [], True
    for name in sets[0]:
        for metric in metrics.END_TO_END:
            values = [s[name]["values"].get(metric.name) for s in sets]
            if values[0] is None:
                continue
            middle = statistics.median(values)
            spread = (max(values) - min(values)) / middle if middle else 0.0
            ok = (spread == 0.0 if metric.exact
                  else spread <= (metric.bound or 0.0))
            agreed = agreed and ok
            rows.append({"workload": name, "metric": metric.name,
                         "values": values, "spread": spread,
                         "bound": metric.bound, "exact": metric.exact,
                         "agree": ok})
    return rows, agreed


def _write_baseline(sets: list[dict[str, dict[str, Any]]],
                    rows: list[dict[str, Any]], seconds: float) -> None:
    latest = sets[-1]
    BASELINE.write_text(json.dumps({
        "claim": None,
        "note": "end-to-end numbers come from untraced runs only; "
                "re-measure after this file's commit before claiming a gain",
        "record": {name: result["record"] for name, result in latest.items()},
        "seconds": seconds,
        "end_to_end": {name: result["values"]
                       for name, result in latest.items()},
        "samples": {name: result["n"] for name, result in latest.items()},
        "per_layer": {name: result["layers"]
                      for name, result in latest.items()
                      if "layers" in result},
        "sets_agreement": rows,
        "predictions": {m.name: m.moves for m in metrics.PER_LAYER if m.moves},
    }, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------- main --

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.suite", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed window per workload on the reference "
                             "sandbox; fixes the unit counts before the run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also make the traced run")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the untraced set and check agreement")
    parser.add_argument("--units", type=int,
                        help="override the unit count (smoke tests)")
    parser.add_argument("--no-pin", action="store_true",
                        help="run unpinned; host-time metrics are marked")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"store the numbers in {BASELINE.name}")
    parser.add_argument("--break-oracle", action="store_true",
                        help="flip every expected value (proves that a "
                             "wrong answer fails the run)")
    args = parser.parse_args(argv)
    cpu = _pick_cpu(args.no_pin)
    names = [args.workload] if args.workload else list(WORKLOADS)

    def run_one(name: str, trace: bool) -> dict[str, Any]:
        workload = WORKLOADS[name]
        units = args.units or workload.units_for(args.seconds)
        result = measure(workload, args.seed, units, cpu, trace,
                         args.break_oracle)
        print(f"\n== {name}: {result['units']} x {workload.unit}, op = "
              f"{workload.op}" + (", traced" if trace else ""))
        _print_result(result)
        sys.stdout.flush()
        return result

    if args.workload and args.sets <= 1:
        # The benchmark contract: one workload, one run, one JSON line.
        result = run_one(args.workload, bool(args.trace))
        print(_contract_line(result, bool(args.trace)))
        return 0 if result["failed"] == 0 else 1

    sets: list[dict[str, dict[str, Any]]] = []
    failed = 0
    for _ in range(max(1, args.sets)):
        results = {}
        for name in names:
            results[name] = run_one(name, False)
            failed += results[name]["failed"]
        sets.append(results)
    if args.trace:
        for name in names:
            traced = run_one(name, True)
            failed += traced["failed"]
            sets[-1][name]["layers"] = traced["layers"]
            sets[-1][name]["record"].update(traced["record"])
    rows, agreed = _agreement(sets)
    if args.sets > 1:
        print("\n== agreement between sets")
        for row in rows:
            shown = " ".join(f"{v:.6g}" for v in row["values"])
            print(f"{row['workload']:<14} {row['metric']:<22} {shown:<40} "
                  f"spread {row['spread']:.4f} bound {row['bound']} "
                  f"{'ok' if row['agree'] else 'DISAGREE'}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "last_run.json").write_text(json.dumps(
        {"sets": sets, "agreement": rows}, indent=1))
    if args.write_baseline:
        _write_baseline(sets, rows, args.seconds)
    print(json.dumps({"correct": failed == 0 and agreed, "failed": failed,
                      "sets_agree": agreed}))
    return 0 if failed == 0 and agreed else 1
