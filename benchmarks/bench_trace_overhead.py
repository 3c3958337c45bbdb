"""Tracing-overhead gate: traced throughput must stay >= FLOOR of untraced.

Runs the benchmark suite's raytrace-shaped strip job
(``benchmarks.suite.adapter``: a 600x600 plane in full-width strips on
4 workers, prefetch 6, batched seed and drain) with tracing off and on
in interleaved rounds and compares the *median* wall-clock tasks/second.
Span recording sits on the data path (every RPC, compute, and aggregate
opens a span), so this is the honest worst case for observability cost;
the CI telemetry job fails the build when the traced median drops below
``FLOOR`` (0.9×) of the untraced one.

A third cell times the traced run *plus* the doctor's critical-path
sweep (:func:`repro.telemetry.doctor.analyze_job`) over the recorded
spans, gated by the same floor against the plain traced run — the
attribution report must stay cheap enough to run after any traced job.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_trace_overhead.py [--rounds N]
        [--strips N] [--floor X]

Exit status 1 on a floor violation.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.suite import adapter  # noqa: E402
from repro.telemetry import analyze_job  # noqa: E402

FLOOR = 0.9

#: The warm job's deployment: 4 workers on the small testbed, compute
#: cost modelled in virtual time, so the wall clock measures what the
#: pipeline and the tracer cost.  Poll budgets are generous because
#: blocking takes wake on arrival in virtual time.
SEED = 7
WORKERS = 4
CONFIG = dict(monitoring=False, compute_real=True, transactional_takes=True,
              worker_poll_ms=10_000.0, dead_letter_poll_ms=10_000.0,
              worker_prefetch=6, master_seed_batch=24, master_drain_batch=24)


def job_rate(strips: int, trace: bool, analyze: bool = False) -> float:
    """Tasks/second of the *second* ``master.run()`` on a standing
    framework: seed through final aggregation, the paper's
    job-completion measure, with one-time costs (class loading,
    connection setup) paid by the warm-up job.  With ``analyze`` the
    doctor's sweep over the job's spans runs inside the timed window."""

    def body(runtime) -> float:
        _, framework, _ = adapter.build_farm(
            runtime, SEED, adapter.StripJob(strips), WORKERS,
            trace=trace, **CONFIG)
        framework.start()
        framework.start_all_workers()
        warmup = framework.master.run()
        if analyze:
            # The warm-up job's spans belong to the warm-up: the timed
            # window pays for analyzing exactly one job's spans.
            framework.tracer.spans.clear()
        t0 = time.perf_counter()
        report = framework.master.run()
        if analyze:
            analyze_job(framework.tracer)
        elapsed = time.perf_counter() - t0
        framework.shutdown()
        assert warmup.complete and report.complete, \
            "benchmark job did not complete"
        return elapsed

    return strips / adapter.simulate(body)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved rounds per configuration (median)")
    parser.add_argument("--strips", type=int, default=24)
    parser.add_argument("--floor", type=float, default=FLOOR,
                        help="minimum traced/untraced throughput ratio")
    args = parser.parse_args()

    # Interleave the rounds so machine-speed phases (noisy CI boxes) land
    # on both configurations, and compare *medians* — a single lucky
    # sample must not decide a ratio gate.
    untraced_runs, traced_runs, doctored_runs = [], [], []
    for _ in range(args.rounds):
        untraced_runs.append(job_rate(args.strips, trace=False))
        traced_runs.append(job_rate(args.strips, trace=True))
        doctored_runs.append(job_rate(args.strips, trace=True, analyze=True))
    untraced = statistics.median(untraced_runs)
    traced = statistics.median(traced_runs)
    doctored = statistics.median(doctored_runs)
    ratio = traced / untraced if untraced else 0.0
    doctor_ratio = doctored / traced if traced else 0.0
    print(f"untraced: {untraced:>10.1f} tasks/s")
    print(f"traced  : {traced:>10.1f} tasks/s")
    print(f"doctored: {doctored:>10.1f} tasks/s (traced + analyze_job)")
    print(f"ratio   : {ratio:.3f}x (floor {args.floor}x)")
    print(f"doctor  : {doctor_ratio:.3f}x of traced (floor {args.floor}x)")
    failed = False
    if ratio < args.floor:
        print(f"OVERHEAD: tracing costs {(1 - ratio):.1%} "
              f"(> {(1 - args.floor):.0%} budget)", file=sys.stderr)
        failed = True
    if doctor_ratio < args.floor:
        print(f"OVERHEAD: doctor analysis costs {(1 - doctor_ratio):.1%} "
              f"on top of tracing (> {(1 - args.floor):.0%} budget)",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
