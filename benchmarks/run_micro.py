"""Run the substrate microbenchmarks and record BENCH_micro.json.

This is the perf-trajectory harness: it times the same workloads as
``bench_micro_substrates.py`` (space write+take, template selectivity,
kernel event rate, process handoff rate, and the blocked-taker contention
workload) without the pytest-benchmark machinery, so it can run anywhere —
CI smoke jobs, pre/post comparisons, bisection scripts.

Output schema (``BENCH_micro.json``)::

    {
      "schema": 1,
      "baseline": {<metric>: <ops/s>, ...},   # first ever recording, kept
      "current":  {<metric>: <ops/s>, ...},   # overwritten on every run
      "speedup":  {<metric>: current/baseline, ...}
    }

The ``baseline`` section is preserved across runs (it is seeded from the
first recording and only replaced with ``--rebaseline``), so the JSON
always answers "how much faster than when we started measuring?".

Two end-to-end workloads ride along with the substrate microbenchmarks:
a raytrace-shaped synthetic job (600×600 plane, 24 strips, 4 workers)
run unpipelined vs pipelined (worker prefetch + batched RPC + master
batch seed/drain), and the durable-commit path under
``fsync_policy=always`` vs ``group``.

Usage::

    PYTHONPATH=src python benchmarks/run_micro.py [--rounds N] [--smoke]
        [--quick] [--check] [--rebaseline] [--output PATH]

``--quick`` is the CI smoke mode: one round, nothing written, and the
run fails if any throughput metric drops below ``CHECK_FLOOR`` (0.8×) of
the committed ``current`` values, below ``BASELINE_FLOOR`` (0.75×) of
the preserved ``baseline`` values, or below an ``ABS_FLOORS`` absolute
floor (same as ``--check``).  The baseline-relative floor exists because
the committed-relative one can be ratcheted down: a PR that regresses a
cell and regenerates the JSON ships its own lowered reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.runtime import SimulatedRuntime
from repro.sim import SimKernel
from repro.tuplespace import JavaSpace
from tests.tuplespace.entries import TaskEntry

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_micro.json"

#: --check/--quick fail when current/committed drops below this.
CHECK_FLOOR = 0.8

#: --check also fails when current/baseline drops below this.  The
#: committed-relative floor alone has a ratchet-down loophole: a PR that
#: regresses a cell *and* regenerates BENCH_micro.json ships its own
#: lowered reference, so the next run passes trivially (that is exactly
#: how an 0.677x e2e_pipelined cell got past the 0.8x gate).  The
#: ``baseline`` section is preserved across runs — only ``--rebaseline``
#: may move it — so this floor cannot be ratcheted down silently.
BASELINE_FLOOR = 0.75

#: Absolute ops/s floors for the headline cells, so a real hot-path
#: regression trips them whatever BENCH_micro.json says: the codec
#: silently falling back to pickle, or the sim kernel going back to a
#: two-switch handoff or a thread per spawn.  The recording box drifts
#: ~1.7x between phases that last minutes; pinned to one CPU the two
#: process cells read 125k / 56k per s in a slow phase (210k / 86k in a
#: fast one) where the kernel-thread design gave 67k / 10k (104k / 14k).
#: Their floors sit at ~0.55x of the slow-phase numbers.
ABS_FLOORS = {
    "space_write_take_ops_per_s": 120_000.0,
    "durable_commits_group_per_s": 60_000.0,
    "process_handoffs_per_s": 70_000.0,
    "process_spawns_per_s": 30_000.0,
}

#: Per-metric overrides for BASELINE_FLOOR.  The e2e wall-clock cells
#: carry the cumulative per-task cost of features landed since the
#: baseline was recorded (epoch fencing on every take, admission/fair
#: share accounting, checkpointing) on top of 1-core CI jitter, so they
#: sit structurally below 0.75x of the original figure.  0.6x stays as
#: a hard backstop; the *structural* regression these cells used to be
#: the only guard for — payload inflation — is now gated exactly by the
#: deterministic wire-cost ceilings below.
BASELINE_FLOOR_OVERRIDES = {
    "e2e_pipelined_tasks_per_s": 0.6,
    "e2e_unpipelined_tasks_per_s": 0.6,
    # fsync-latency-bound, not code-bound: cProfile on the 0.79x run puts
    # 79% of the wall time inside posix.fsync (0.147s of 0.187s for 400
    # commits); the codec + frame encode cost is ~17µs/commit.  The same
    # box reproduces 6,225–7,609 ops/s across runs — a spread that spans
    # the recorded 7,162 baseline — so the cell tracks the CI disk's
    # fsync latency, and a stricter floor would flake on a slower device
    # while catching nothing the ABS_FLOORS/group-commit cells miss.
    "durable_commits_always_per_s": 0.65,
}

#: --check fails when a deterministic wire-cost cell (messages/KB the
#: simulated network carries for one warm pipelined job) grows beyond
#: this multiple of the committed value.  These counts are exact and
#: replayable — no wall-clock noise — so the ceiling is tight; they are
#: the gate that would have caught the entry-frame inflation behind the
#: 0.677x e2e drop the throughput floors missed.
WIRE_CEIL = 1.25
WIRE_CELLS = ("e2e_pipelined_job_messages", "e2e_pipelined_job_kb")

#: --check also fails when the 16-shard e2e throughput falls below this
#: multiple of the 1-shard number (both deterministic virtual-time
#: figures, so the ratio is noise-free).
SHARD_SPEEDUP_FLOOR = 4.0

#: --check fails when Jain's fairness index of DRR grants across equal
#: tenants falls below this (1.0 = perfectly fair; an absolute floor,
#: the workload is deterministic).
JAIN_FAIRNESS_FLOOR = 0.95

#: --check fails when the victim's p99 completion-gap under an aggressor
#: grows beyond this multiple of the committed value (lower is better,
#: so the throughput floor cannot gate it; virtual-time, noise-free).
CONTENTION_P99_CEIL = 1.25


def _time(fn: Callable[[], int], rounds: int) -> float:
    """Best-of-``rounds`` ops/second for ``fn`` (returns its op count)."""
    best = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            best = max(best, ops / elapsed)
    return best


# ---------------------------------------------------------------- workloads --

def space_write_take(n: int = 2000) -> int:
    """Write+take cycles through the space (in-process, no network)."""
    runtime = SimulatedRuntime()
    space = JavaSpace(runtime)

    def body():
        for i in range(n):
            space.write(TaskEntry("bench", i, i))
        for _ in range(n):
            space.take(TaskEntry(), timeout_ms=0.0)

    proc = runtime.kernel.spawn(body, name="bench")
    runtime.kernel.run_until_idle()
    assert proc.finished and proc.error is None
    runtime.shutdown()
    return 2 * n


def space_selectivity(n: int = 1000, takes: int = 100) -> int:
    """Selective takes against an ``n``-entry store."""
    runtime = SimulatedRuntime()
    space = JavaSpace(runtime)

    def body():
        for i in range(n):
            space.write(TaskEntry(f"app{i % 10}", i, None))
        for _ in range(takes):
            assert space.take(TaskEntry(app="app7"), timeout_ms=0.0) is not None

    proc = runtime.kernel.spawn(body, name="bench")
    runtime.kernel.run_until_idle()
    assert proc.finished and proc.error is None
    runtime.shutdown()
    return n + takes


def kernel_event_rate(n: int = 20000) -> int:
    """Pure event-loop throughput (no process handoffs)."""
    kernel = SimKernel()
    counter = {"n": 0}

    def tick():
        counter["n"] += 1

    for i in range(n):
        kernel.call_later(float(i % 97), tick)
    kernel.run()
    assert counter["n"] == n
    kernel.shutdown()
    return n


def process_handoff_rate(n: int = 2000) -> int:
    """Thread-backed process context switches: two processes ping-pong.

    Both sleep the same period, so every wake hands the baton to the
    *other* process's thread.  (A lone sleeper wakes itself without any
    OS switch and would measure the event loop, not a handoff.)
    """
    kernel = SimKernel()

    def proc():
        for _ in range(n // 2):
            kernel.sleep(1.0)

    kernel.spawn(proc, name="ping")
    kernel.spawn(proc, name="pong")
    kernel.run()
    kernel.shutdown()
    return n


def process_spawn_rate(n: int = 2000) -> int:
    """Spawn -> first slice -> finish of trivial processes, one at a time.

    The parent sleeps between spawns, so each child lives and dies alone:
    the cost of a short-lived process (a scatter leg, a connection
    handler), not of a thousand coexisting ones.
    """
    kernel = SimKernel()
    finished = []

    def parent():
        for i in range(n):
            kernel.spawn(lambda i=i: finished.append(i), name="child")
            kernel.sleep(1.0)

    kernel.spawn(parent, name="parent")
    kernel.run()
    assert len(finished) == n
    kernel.shutdown()
    return n


def contention_write_take(writes: int = 500, takers: int = 16) -> int:
    """1 writer, ``takers`` blocked takers on distinct templates.

    Only one taker's template matches the written entries; a scalable
    space wakes just that taker per write, not the whole herd.
    """
    runtime = SimulatedRuntime()
    space = JavaSpace(runtime)
    taken = []

    def taker(app: str):
        while True:
            entry = space.take(TaskEntry(app=app), timeout_ms=5000.0)
            if entry is None:
                return
            taken.append(entry.task_id)

    def writer():
        for i in range(writes):
            space.write(TaskEntry("app0", i, None))
            runtime.sleep(1.0)

    for t in range(takers):
        runtime.spawn(lambda t=t: taker(f"app{t}"), name=f"taker{t}")
    runtime.spawn(writer, name="writer")
    runtime.kernel.run_until_idle()
    assert len(taken) == writes
    runtime.shutdown()
    return writes


def contention_wakeups_per_write(writes: int = 200, takers: int = 16) -> float:
    """Condition wakeups issued per write under the contention workload.

    Pre-overhaul (``notify_all``) this is ~``takers``; with per-template
    wait queues it is ~1.  Reported directly (not ops/s).  Returns 0 when
    the space does not expose a wakeup counter (pre-overhaul builds).
    """
    runtime = SimulatedRuntime()
    space = JavaSpace(runtime)

    def taker(app: str):
        while space.take(TaskEntry(app=app), timeout_ms=2000.0) is not None:
            pass

    def writer():
        for i in range(writes):
            space.write(TaskEntry("app0", i, None))
            runtime.sleep(1.0)

    for t in range(takers):
        runtime.spawn(lambda t=t: taker(f"app{t}"), name=f"taker{t}")
    runtime.spawn(writer, name="writer")
    runtime.kernel.run_until_idle()
    wakeups = space.stats.get("wakeups", 0)
    runtime.shutdown()
    return wakeups / writes


def _strip_job_framework(runtime, workers: int, strips: int,
                         prefetch: int, seed_batch: int, drain_batch: int,
                         trace: bool):
    """The raytrace-shaped 600x600 strip job on a small testbed."""
    from repro.core.application import Application, ClassLoadProfile, Task
    from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
    from repro.node.cluster import testbed_small
    from repro.sim.rng import RandomStreams

    width, height = 600, 600
    strip_rows = height // strips

    class StripJob(Application):
        app_id = "bench-strips"

        def plan(self):
            return [Task(task_id=i,
                         payload={"region": (0, i * strip_rows, width,
                                             (i + 1) * strip_rows)})
                    for i in range(strips)]

        def execute(self, payload):
            x0, y0, x1, y1 = payload["region"]
            return [(x1 - x0) * y for y in range(y0, y1)]

        def aggregate(self, results):
            return sum(sum(rows) for rows in results.values())

        def task_cost_ms(self, task):
            return 2_500.0

        def planning_cost_ms(self, task):
            return 20.0

        def aggregation_cost_ms(self, task_id, result):
            return 30.0

        def classload_profile(self):
            return ClassLoadProfile(work_ref_ms=100.0, demand_percent=80.0,
                                    bundle_bytes=50_000)

    cluster = testbed_small(runtime, workers=workers,
                            streams=RandomStreams(7))
    framework = AdaptiveClusterFramework(
        runtime, cluster, StripJob(),
        FrameworkConfig(
            monitoring=False,
            compute_real=True,
            transactional_takes=True,
            worker_poll_ms=10_000.0,
            dead_letter_poll_ms=10_000.0,
            worker_prefetch=prefetch,
            master_seed_batch=seed_batch,
            master_drain_batch=drain_batch,
            trace=trace,
        ),
    )
    return cluster, framework


def e2e_job_wire_cost(strips: int = 24,
                      workers: int = 4) -> dict[str, float]:
    """Simulated-network traffic of one warm pipelined job: deterministic.

    Counts RPC messages and payload bytes between the warm-up job and
    the measured job on the modelled network — exact, replayable
    figures, immune to wall-clock noise.  These are the cells that catch
    a payload-inflation regression (the 0.677x e2e drop came from entry
    frames growing field by field across PRs, which wall-clock gates on
    a noisy box cannot separate from scheduler jitter).
    """
    from repro.experiments.harness import run_simulation

    def body(runtime):
        cluster, framework = _strip_job_framework(
            runtime, workers=workers, strips=strips, prefetch=6,
            seed_batch=strips, drain_batch=strips, trace=False)
        framework.start()
        framework.start_all_workers()
        warmup = framework.master.run()
        stats = cluster.network.stats
        before = (stats["messages"], stats["message_bytes"])
        report = framework.master.run()
        after = (stats["messages"], stats["message_bytes"])
        framework.shutdown()
        assert warmup.complete and report.complete, \
            "benchmark job did not complete"
        return after[0] - before[0], after[1] - before[1]

    messages, payload_bytes = run_simulation(body)
    return {
        "e2e_pipelined_job_messages": float(messages),
        "e2e_pipelined_job_kb": payload_bytes / 1024.0,
    }


def doctor_phase_cells(strips: int = 24, workers: int = 4) -> dict[str, float]:
    """Deterministic phase attribution of one warm pipelined job.

    Runs the raytrace-shaped strip job traced (warm-up job first, the
    doctor analyzes the second run's spans) and reports each phase's
    attributed virtual milliseconds as a ``doctor_<phase>_ms`` cell.
    The figures live on the simulation clock, so they are exact and
    replayable — when a wall-clock e2e gate trips, ``--check`` compares
    these cells against the committed ones to say *which phase* grew
    (see :func:`repro.telemetry.doctor.explain_phase_regression`).
    """
    from repro.experiments.harness import run_simulation
    from repro.telemetry import analyze_job
    from repro.telemetry.doctor import PHASE_ORDER

    def body(runtime):
        cluster, framework = _strip_job_framework(
            runtime, workers=workers, strips=strips, prefetch=6,
            seed_batch=strips, drain_batch=strips, trace=True)
        framework.start()
        framework.start_all_workers()
        warmup = framework.master.run()
        report = framework.master.run()
        framework.shutdown()
        assert warmup.complete and report.complete, \
            "benchmark job did not complete"
        return analyze_job(framework.tracer)

    doc = run_simulation(body)
    assert abs(doc.attributed_fraction() - 1.0) <= 0.01, \
        f"doctor attribution covers {doc.attributed_fraction():.3f} of " \
        f"the job window, expected 1.0 +/- 0.01"
    by_phase = doc.phase_ms()
    cells = {f"doctor_{phase}_ms": round(by_phase.get(phase, 0.0), 3)
             for phase in PHASE_ORDER}
    cells["doctor_wall_ms"] = round(doc.wall_ms, 3)
    return cells


def e2e_job_rate(prefetch: int = 1, seed_batch: int = 1,
                 drain_batch: int = 1, workers: int = 4,
                 strips: int = 24, rounds: int = 1,
                 trace: bool = False, analyze: bool = False) -> float:
    """Best-of-``rounds`` tasks/second for one full master–worker job.

    Raytrace-shaped (paper §5.1.2): a 600×600 image plane split into
    ``strips`` full-width scanline strips; each task carries its region's
    four coordinates and returns a synthetic per-row rendering.  Compute
    cost is modelled virtual time, so the wall clock measures exactly
    what the pipeline changes: round trips, messages, and handoffs.
    The timer brackets the *second* ``master.run()`` on a standing
    framework — seed through final aggregation, the paper's
    job-completion measure, with one-time costs (worker class loading,
    connection setup) amortized by the warm-up job — not runtime
    construction or thread teardown, which are identical in both
    configurations.  Poll budgets are generous because blocking takes
    wake on arrival in virtual time; short budgets would just add poll
    traffic both configurations share.
    """
    from repro.experiments.harness import run_simulation

    def body(runtime):
        cluster, framework = _strip_job_framework(
            runtime, workers=workers, strips=strips, prefetch=prefetch,
            seed_batch=seed_batch, drain_batch=drain_batch, trace=trace)
        framework.start()
        framework.start_all_workers()
        warmup = framework.master.run()
        if analyze:
            # The warm-up job's spans belong to the warm-up: drop them so
            # the timed window pays for analyzing exactly one job's spans
            # (the per-job cost the gate is about), not two jobs' worth.
            framework.tracer.spans.clear()
        t0 = time.perf_counter()
        report = framework.master.run()
        if analyze:
            # Time the doctor's critical-path sweep inside the measured
            # window: bench_trace_overhead gates analysis cost the same
            # way it gates span-recording cost.
            from repro.telemetry import analyze_job

            analyze_job(framework.tracer)
        elapsed = time.perf_counter() - t0
        framework.shutdown()
        assert warmup.complete and report.complete, \
            "benchmark job did not complete"
        return elapsed

    best = 0.0
    for _ in range(rounds):
        elapsed = run_simulation(body)
        if elapsed > 0:
            best = max(best, strips / elapsed)
    return best


def e2e_sharded_rate(shards: int, smoke: bool = False) -> float:
    """Virtual-time tasks/second of the egress-bound job at one shard count.

    Unlike the wall-clock e2e numbers, this one is measured on the
    simulation clock (the job is network-bound by construction, and the
    network is modelled), so it is deterministic for the fixed seed and
    the 16-shard/1-shard ratio is a stable, gateable scaling figure.
    """
    from repro.experiments.scalability import sharded_throughput_experiment

    if smoke:
        row = sharded_throughput_experiment(
            shards, workers=4, strips=32, result_kb=16, prefetch=4)
    else:
        row = sharded_throughput_experiment(shards)
    return row.tasks_per_s


def fairness_jain_index(tenants: int = 8, takes_per_tenant: int = 30) -> float:
    """Jain's fairness index of DRR take grants across equal tenants.

    ``tenants`` equally weighted tenants stay backlogged while
    ``tenants * takes_per_tenant`` wildcard takes drain the space;
    J = (Σx)² / (n·Σx²) over the per-tenant grant counts.  1.0 means
    the dispatcher split the takes perfectly evenly.
    """
    from repro.core.entries import TaskEntry as CoreTaskEntry

    runtime = SimulatedRuntime()
    space = JavaSpace(runtime)
    names = [f"t{i:02d}" for i in range(tenants)]
    takes = tenants * takes_per_tenant

    def body():
        space.configure_fair_share({name: 1.0 for name in names})
        task_id = 0
        for name in names:
            for _ in range(2 * takes_per_tenant):  # never drains early
                space.write(CoreTaskEntry(app_id="bench", task_id=task_id,
                                          tenant=name, priority=0))
                task_id += 1
        for _ in range(takes):
            assert space.take(CoreTaskEntry(), timeout_ms=0.0) is not None

    proc = runtime.kernel.spawn(body, name="bench")
    runtime.kernel.run_until_idle()
    assert proc.finished and proc.error is None
    grants = [space.fair_stats.get(f"grants:{name}", 0) for name in names]
    runtime.shutdown()
    total = sum(grants)
    squares = sum(g * g for g in grants)
    return (total * total) / (len(grants) * squares) if squares else 0.0


def contention_overload(smoke: bool = False) -> dict[str, float]:
    """Victim-tenant service under an aggressor flooding 10x its quota.

    Runs the multi-tenant contention campaign (admission control +
    weighted fair share + preemption) and reports the victim's
    virtual-time throughput and its p99 completion-gap — the stall a
    victim task sees while the flood is being shed.  Both figures are
    deterministic (simulated clock), so the gates are noise-free.
    """
    from repro.experiments.chaos import contention_chaos_experiment

    result = contention_chaos_experiment(
        seed=42, tenants=4 if smoke else 8,
        victim_tasks=8 if smoke else 24,
    )
    assert result.correct and result.consistent, \
        "contention benchmark run failed its own acceptance checks"
    return {
        "contention_victim_tasks_per_s": result.victim_throughput_per_s,
        "contention_victim_p99_gap_ms": result.victim_p99_gap_ms,
    }


def durable_commit_rate(fsync_policy: str, n: int = 400,
                        group_size: int = 64) -> int:
    """Commit records through a file-backed WAL under one fsync policy.

    ``always`` pays one fsync per commit; ``group`` amortizes one fsync
    over up to ``group_size`` buffered commits (the trailing partial
    group is flushed by the final durability barrier, so both policies
    end fully durable)."""
    from repro.tuplespace.wal import FileWalStore, WriteAheadLog, op_write

    with tempfile.TemporaryDirectory() as tmp:
        store = FileWalStore(os.path.join(tmp, "wal"),
                             fsync_policy=fsync_policy,
                             group_size=group_size)
        wal = WriteAheadLog(store)
        payload = b"x" * 100
        for i in range(n):
            wal.append((op_write(i, payload, float("inf")),))
        wal.sync()
        store.close()
    return n


# -------------------------------------------------------------------- driver --

def run(rounds: int, smoke: bool) -> dict[str, float]:
    scale = 10 if smoke else 1
    results = {
        "space_write_take_ops_per_s": _time(
            lambda: space_write_take(2000 // scale), rounds),
        "space_selectivity_ops_per_s": _time(
            lambda: space_selectivity(1000 // scale, 100 // scale), rounds),
        "kernel_events_per_s": _time(
            lambda: kernel_event_rate(20000 // scale), rounds),
        "process_handoffs_per_s": _time(
            lambda: process_handoff_rate(2000 // scale), rounds),
        "process_spawns_per_s": _time(
            lambda: process_spawn_rate(2000 // scale), rounds),
        "contention_write_take_ops_per_s": _time(
            lambda: contention_write_take(500 // scale), rounds),
        "contention_wakeups_per_write": contention_wakeups_per_write(
            200 // scale),
        "e2e_unpipelined_tasks_per_s": e2e_job_rate(
            prefetch=1, seed_batch=1, drain_batch=1,
            strips=24 if scale == 1 else 6, rounds=rounds),
        "e2e_pipelined_tasks_per_s": e2e_job_rate(
            prefetch=6, seed_batch=24, drain_batch=24,
            strips=24 if scale == 1 else 6, rounds=rounds),
        "durable_commits_always_per_s": _time(
            lambda: durable_commit_rate("always", 400 // scale), rounds),
        "durable_commits_group_per_s": _time(
            lambda: durable_commit_rate("group", 400 // scale), rounds),
        # Deterministic virtual-time numbers: one run regardless of
        # --rounds (re-running replays the identical simulation).
        "e2e_sharded_1shard_tasks_per_s": e2e_sharded_rate(1, smoke),
        "e2e_sharded_tasks_per_s": e2e_sharded_rate(16, smoke),
        "contention_jain_index": fairness_jain_index(
            tenants=4 if smoke else 8),
    }
    results.update(contention_overload(smoke))
    if not smoke:
        results.update(e2e_job_wire_cost())
        results.update(doctor_phase_cells())
    return results


def check_against(committed: dict[str, Any],
                  current: dict[str, float],
                  baseline: Optional[dict[str, Any]] = None) -> list[str]:
    """CI floor: every committed throughput must stay >= CHECK_FLOOR×.

    A committed metric the current run did not produce is itself a
    failure — silently skipping it would let a renamed or dropped
    workload retire its own regression gate.

    Three independent floors per ``*_per_s`` cell: committed-relative
    (CHECK_FLOOR, catches a regression landing now), baseline-relative
    (BASELINE_FLOOR, catches a regression that already shipped its own
    lowered committed reference — the ratchet-down loophole), and the
    absolute ABS_FLOORS for the codec and sim-kernel headline cells.  The deterministic
    wire-cost cells are gated by a *ceiling* (WIRE_CEIL): lower is
    better and the numbers are exact, so growth means a structural
    payload regression, never noise.
    """
    failures = []
    for key, reference in committed.items():
        if not key.endswith("_per_s") or not reference:
            continue
        measured = current.get(key)
        if measured is None:
            failures.append(
                f"{key}: committed metric missing from this run "
                f"(workload dropped or renamed?)")
            continue
        ratio = measured / reference
        if ratio < CHECK_FLOOR:
            failures.append(
                f"{key}: {measured:.1f} is {ratio:.2f}x of committed "
                f"{reference:.1f} (floor {CHECK_FLOOR}x)")
    for key, reference in (baseline or {}).items():
        if not key.endswith("_per_s") or not reference:
            continue
        measured = current.get(key)
        if measured is None:
            continue  # already reported against committed above
        floor = BASELINE_FLOOR_OVERRIDES.get(key, BASELINE_FLOOR)
        ratio = measured / reference
        if ratio < floor:
            failures.append(
                f"{key}: {measured:.1f} is {ratio:.2f}x of the recorded "
                f"baseline {reference:.1f} (floor {floor}x; "
                f"a committed regression cannot ratchet this one down)")
    for key, floor in ABS_FLOORS.items():
        measured = current.get(key)
        if measured is not None and measured < floor:
            failures.append(
                f"{key}: {measured:.1f} below the absolute floor "
                f"{floor:.0f} ops/s (hot-path headline cell)")
    for key in WIRE_CELLS:
        reference = committed.get(key)
        measured = current.get(key)
        if reference and measured is not None and \
                measured > reference * WIRE_CEIL:
            failures.append(
                f"{key}: {measured:.1f} is {measured / reference:.2f}x of "
                f"committed {reference:.1f} (ceiling {WIRE_CEIL}x; "
                f"deterministic wire cost — payload inflation, not noise)")
    base = current.get("e2e_sharded_1shard_tasks_per_s")
    many = current.get("e2e_sharded_tasks_per_s")
    if base and many and many / base < SHARD_SPEEDUP_FLOOR:
        failures.append(
            f"e2e_sharded_tasks_per_s: {many:.1f} is only "
            f"{many / base:.2f}x the 1-shard {base:.1f} "
            f"(floor {SHARD_SPEEDUP_FLOOR}x)")
    jain = current.get("contention_jain_index")
    if jain is not None and jain < JAIN_FAIRNESS_FLOOR:
        failures.append(
            f"contention_jain_index: {jain:.3f} below the absolute "
            f"fairness floor {JAIN_FAIRNESS_FLOOR}")
    p99_ref = committed.get("contention_victim_p99_gap_ms")
    p99 = current.get("contention_victim_p99_gap_ms")
    if p99_ref and p99 is not None and p99 > p99_ref * CONTENTION_P99_CEIL:
        failures.append(
            f"contention_victim_p99_gap_ms: {p99:.1f} is "
            f"{p99 / p99_ref:.2f}x of committed {p99_ref:.1f} "
            f"(ceiling {CONTENTION_P99_CEIL}x)")
    if any("e2e_" in line for line in failures):
        # An e2e gate tripped: append the doctor's phase-level diff of
        # the deterministic ``doctor_<phase>_ms`` cells so the failure
        # names the phase that grew, not just the headline number.
        from repro.telemetry.doctor import explain_phase_regression

        failures.extend(explain_phase_regression(committed, current))
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="take the best of N rounds per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads; checks the harness, not perf")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: one round, no write, implies --check")
    parser.add_argument("--check", action="store_true",
                        help="fail if any throughput drops below "
                             f"{CHECK_FLOOR}x of the committed current values")
    parser.add_argument("--rebaseline", action="store_true",
                        help="replace the stored baseline with this run")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1 (got {args.rounds})")
    if args.quick:
        # Two rounds: one is too noisy for a 0.8x floor on a busy CI
        # box, three is the full default.
        args.check = True
        args.rounds = min(args.rounds, 2)

    current = run(args.rounds, args.smoke)

    doc: dict = {"schema": 1}
    if args.output.exists():
        try:
            doc = json.loads(args.output.read_text())
        except json.JSONDecodeError:
            pass
    committed = dict(doc.get("current") or {})
    baseline = doc.get("baseline")
    if baseline is None or args.rebaseline:
        baseline = dict(current)
    else:
        # Workloads added after the baseline was recorded seed their own.
        for key, value in current.items():
            baseline.setdefault(key, value)

    speedup = {
        k: round(current[k] / baseline[k], 3)
        for k in current
        if k in baseline and baseline[k] and k.endswith("_per_s")
    }
    doc.update({"schema": 1, "baseline": baseline, "current": current,
                "speedup": speedup})
    if not (args.smoke or args.quick):
        args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    for key in sorted(current):
        extra = f"  ({speedup[key]}x vs baseline)" if key in speedup else ""
        print(f"{key:>36}: {current[key]:>14.1f}{extra}")
    if args.smoke:
        print("smoke run: harness OK, BENCH_micro.json left untouched")
    elif args.quick:
        print("quick run: BENCH_micro.json left untouched")
    else:
        print(f"wrote {args.output}")

    if args.check:
        failures = check_against(committed, current, baseline)
        if failures:
            for line in failures:
                print(f"REGRESSION {line}", file=sys.stderr)
            raise SystemExit(1)
        checked = sum(1 for k in committed
                      if k.endswith("_per_s") and k in current)
        print(f"check OK: {checked} throughput metrics >= "
              f"{CHECK_FLOOR}x committed")


if __name__ == "__main__":
    main()
