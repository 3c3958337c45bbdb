"""The six workloads: what runs, how much, and the oracle for each.

A workload's ``body(run)`` builds its own deployment (that is set-up),
calls ``run.start_window()``, executes ``run.units`` individually timed
units inside ``with run.unit():``, reports every operation through
``run.tally`` and calls ``run.end_window()``.  Unit counts are fixed
before the run from ``--seconds`` and :attr:`Workload.units_per_s` —
never decided by a clock while measuring — so counted and virtual-time
metrics repeat exactly for a fixed seed.

Closed loop, one generator: a unit starts when the previous one ended.
Only :mod:`adapter` is imported from the program's side.
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from benchmarks.suite import adapter

__all__ = ["WORKLOADS", "Workload", "quantile"]

STRIPS = 240
WORKERS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                # one line, copied into BENCHMARK.json
    op: str                 # what one counted operation is
    unit: str               # what one individually timed unit is
    units_per_s: float      # on the reference sandbox, pinned; sizes a run
    min_units: int          # never measure fewer (whole run, all processes)
    body: Callable[[Any], None]
    #: Each unit builds and tears down its own deployments (so nothing a
    #: unit constructed is alive after it).
    self_contained: bool = False

    def units_for(self, seconds: float) -> int:
        return max(self.min_units, round(seconds * self.units_per_s))


# -------------------------------------------------------------------- farms --

_FARM_COMMON = dict(
    monitoring=False, compute_real=True, transactional_takes=True,
    worker_poll_ms=10_000.0, dead_letter_poll_ms=10_000.0, codec="compact",
)
_BATCHED = dict(worker_prefetch=6, master_seed_batch=STRIPS,
                master_drain_batch=STRIPS)
_HARDENED = dict(
    _BATCHED, shards=4, hot_standby=True, sync_replication=True,
    durable_space=True, wal_fsync_policy="group", admission=True,
    tenant="bench", tenant_shares={"bench": 1.0},
    master_checkpoint_ms=1_000.0,
)


def _farm(run: Any, warmup_jobs: int, warmup_strips: int,
          **wanted: Any) -> None:
    """A standing framework running the same strip job ``run.units`` times."""

    def body(runtime: Any) -> None:
        app = adapter.StripJob(warmup_strips)
        cluster, framework, omitted = adapter.build_farm(
            runtime, run.seed, app, WORKERS, **_FARM_COMMON, **wanted)
        run.omitted_config.extend(omitted)
        framework.start()
        framework.start_all_workers()
        for _ in range(warmup_jobs):
            if not framework.master.run().complete:
                raise RuntimeError("warm-up job did not complete")
        app.strips = STRIPS
        expected = run.oracle(adapter.StripJob.SOLUTION)
        net = cluster.network.stats

        def traffic() -> tuple[int, int]:
            return (net["messages"] + net["datagrams"],
                    net["message_bytes"] + net["datagram_bytes"])

        run.start_window()
        messages0, bytes0 = traffic()
        for _ in range(run.units):
            started_ms = runtime.now()
            with run.unit():
                report = framework.master.run()
            run.virtual_ms.append(runtime.now() - started_ms)
            aggregated = sum(report.results_by_worker.values())
            if not report.complete:
                run.tally(STRIPS, max(1, STRIPS - aggregated),
                          f"job incomplete: {aggregated}/{STRIPS} aggregated")
            elif report.solution != expected or report.duplicate_results:
                run.tally(STRIPS, STRIPS,
                          f"solution {report.solution} != {expected} or "
                          f"{report.duplicate_results} duplicate results")
            else:
                run.tally(STRIPS)
        messages1, bytes1 = traffic()
        run.end_window()
        run.extra["net_messages"] = messages1 - messages0
        run.extra["net_bytes"] = bytes1 - bytes0
        framework.shutdown()

    adapter.simulate(body)


def farm_batched(run: Any) -> None:
    _farm(run, warmup_jobs=20, warmup_strips=STRIPS, **_BATCHED)


def farm_per_task(run: Any) -> None:
    _farm(run, warmup_jobs=2, warmup_strips=STRIPS, worker_prefetch=1,
          master_seed_batch=1, master_drain_batch=1)


def farm_hardened(run: Any) -> None:
    # A full-size warm-up job costs as much as a measured one (seconds).
    # Class loading and connection set-up amortize just as well on a
    # 4-strip job of the same app, and unlike a 24-strip one (16 or 23
    # virtual seconds depending on who wins a race) its length barely
    # depends on the seed, which keeps setup_s comparable across seeds.
    _farm(run, warmup_jobs=1, warmup_strips=4, **_HARDENED)


# -------------------------------------------------------------- space_mixed --

PRELOAD = 20_000
APPS = 50
BLOCK = 1_000


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by rank (no interpolation: a measured value)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def space_mixed(run: Any) -> None:
    """Seeded op mix against a file-backed durable space, then recovery.

    The shadow model is one dict per ``app_id`` (task_id → payload).  It
    does not predict *which* match an op returns, only that whatever
    comes back was there, is returned once, and that counts agree."""
    rng = random.Random(run.seed * 7919 + run.first_unit)
    apps = [f"app{i:02d}" for i in range(APPS)]
    shadow: dict[str, dict[int, int]] = {app: {} for app in apps}
    Entry = adapter.TaskEntry
    clock = time.perf_counter
    commit_s: list[float] = []
    read_s: list[float] = []
    next_id = 0

    def fresh(app: str) -> Any:
        nonlocal next_id
        task_id = next_id
        next_id += 1
        shadow[app][task_id] = task_id * 3
        return Entry(app, task_id, task_id * 3)

    def gone(entry: Any) -> bool:
        """True when ``entry`` was in the model (and removes it)."""
        return shadow[entry.app_id].pop(entry.task_id, None) == entry.payload

    def one_op(space: Any, txns: Any) -> bool:
        """Issue one seeded op; False when it contradicts the model."""
        pick = rng.random()
        app = apps[rng.randrange(APPS)]
        if pick < 0.30:                                     # write
            entry = fresh(app)
            t = clock(); space.write(entry); commit_s.append(clock() - t)
            return True
        if pick < 0.55:                                     # selective read
            t = clock()
            got = space.read(Entry(app_id=app), timeout_ms=0.0)
            read_s.append(clock() - t)
            if got is None:
                return not shadow[app]
            return shadow[app].get(got.task_id) == got.payload
        if pick < 0.85:                      # selective (20 %) / FIFO take
            template = Entry(app_id=app) if pick < 0.75 else Entry()
            t = clock()
            got = space.take(template, timeout_ms=0.0)
            commit_s.append(clock() - t)
            if got is None:
                return not (shadow[app] if pick < 0.75 else any(
                    shadow.values()))
            return gone(got)
        if pick < 0.90:                     # take_multiple(8) + write_all(8)
            t = clock()
            taken = space.take_multiple(Entry(), 8, timeout_ms=0.0)
            commit_s.append(clock() - t)
            ok = all([gone(entry) for entry in taken])
            again = [fresh(entry.app_id) for entry in taken]
            t = clock(); space.write_all(again); commit_s.append(clock() - t)
            return ok
        if pick < 0.95:                                     # count
            return space.count(Entry(app_id=app)) == len(shadow[app])
        txn = txns.create()                        # txn take+write+commit
        got = space.take(Entry(app_id=app), txn=txn, timeout_ms=0.0)
        ok = not shadow[app] if got is None else gone(got)
        if got is not None:
            space.write(fresh(app), txn=txn)
        t = clock(); txn.commit(); commit_s.append(clock() - t)
        return ok

    def body(runtime: Any) -> None:
        os.makedirs(run.scratch_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.scratch_dir) as tmp:
            path = os.path.join(tmp, "wal")
            space, store, txns = adapter.open_space(runtime, path)
            for start in range(0, PRELOAD, 500):
                space.write_all([fresh(apps[i % APPS])
                                 for i in range(start, start + 500)])
            run.start_window()
            for _ in range(run.units):
                failed = 0
                with run.unit():
                    for _ in range(BLOCK):
                        try:
                            failed += not one_op(space, txns)
                        except Exception as exc:  # noqa: BLE001 - counted
                            failed += 1
                            run.failures.append(f"op raised {exc!r}")
                run.tally(BLOCK, failed,
                          f"{failed} ops contradicted the shadow model")
            run.end_window()
            space.sync()
            store.close()
            del space
            t = clock()
            recovered, store = adapter.recover_space(runtime, path)
            run.extra["recover_ms"] = (clock() - t) * 1e3
            got = {(e.app_id, e.task_id, e.payload)
                   for e in recovered.contents(Entry())}
            want = {(app, task_id, payload)
                    for app, held in shadow.items()
                    for task_id, payload in held.items()}
            expected = run.oracle(len(want))
            wrong = len(got ^ want) + abs(expected - len(want))
            run.tally(0, min(1, wrong),
                      f"recovered contents differ from the model in "
                      f"{wrong} entries")
            store.close()

    adapter.simulate(body)
    run.extra.update(
        commit_us_p50=quantile(commit_s, 0.50) * 1e6,
        commit_us_p99=quantile(commit_s, 0.99) * 1e6,
        commit_n=len(commit_s),
        read_us_p50=quantile(read_s, 0.50) * 1e6,
        read_us_p99=quantile(read_s, 0.99) * 1e6,
        read_n=len(read_s),
    )


# --------------------------------------------------------------- paper_eval --

_CYCLE = ["start", "stop", "start", "pause", "resume"]
_GRADES = {"option-pricing": ("Medium", "Adaptable", False),
           "ray-tracing": ("High", "High", False),
           "web-prefetch": ("Low", "Low", True)}


def _paper_claims(report: Any) -> Iterator[tuple[str, bool]]:
    """The figure benches' shape claims, re-asserted on one evaluation."""
    rows = {app: {r.workers: r for r in sweep.rows}
            for app, sweep in report.scalability.items()}
    speedup = {app: dict(sweep.speedups())
               for app, sweep in report.scalability.items()}
    opt, ray, web = (rows[app] for app in _GRADES)
    yield "fig6: speedup to 4 workers", speedup["option-pricing"][4] > 3.0
    yield "fig6: flat past 4 workers", (
        speedup["option-pricing"][13] < speedup["option-pricing"][4] * 1.15)
    yield "fig6: planning dominates at 13", (
        opt[13].planning_ms > 0.8 * opt[13].parallel_ms)
    yield "fig7: max worker time scales", all(
        abs(ray[n].max_worker_ms * n / ray[1].max_worker_ms - 1.0) <= 0.20
        for n in (2, 3, 4, 5))
    yield "fig7: worker time dominates", all(
        row.max_worker_ms > 0.75 * row.parallel_ms for row in ray.values())
    yield "fig8: scales to 4 workers", speedup["web-prefetch"][4] > 2.5
    yield "fig8: aggregation dominates at 5", (
        web[5].aggregation_ms > 0.8 * web[5].parallel_ms)
    for app, result in report.adaptation.items():
        yield f"fig9-11: signal cycle, {app}", (
            result.signals_in_order == _CYCLE and result.class_loads == 2)
        yield f"fig9-11: resume is immediate, {app}", (
            result.reaction_for("resume").worker_ms < 10.0)
    times = {app: [row.total_parallel_ms for row in result.rows]
             for app, result in report.dynamics.items()}
    yield "exp3: ray tracing slows with load", (
        times["ray-tracing"][0] < times["ray-tracing"][1]
        < times["ray-tracing"][2])
    yield "exp3: option pricing barely moves", (
        times["option-pricing"][2] < times["option-pricing"][0] * 1.3)
    yield "exp3: pre-fetching never speeds up", (
        times["web-prefetch"][0] <= times["web-prefetch"][1]
        <= times["web-prefetch"][2])
    graded = {c.app_id: (c.scalability, c.cpu, c.task_dependency)
              for c in report.classification}
    yield "table2: grades", graded == _GRADES


def paper_eval(run: Any) -> None:
    """The paper's full evaluation; inputs are the paper's, not seeded."""
    first_text = None
    run.start_window()
    for _ in range(run.units):
        with run.unit():
            report = adapter.run_full_evaluation()
        text = report.render()
        if first_text is None:
            first_text = text
        scalability = [row for sweep in report.scalability.values()
                       for row in sweep.rows]
        dynamics = [row for result in report.dynamics.values()
                    for row in result.rows]
        simulations = (len(scalability) + len(report.adaptation)
                       + len(dynamics) + len(report.classification))
        run.virtual_ms.append(sum(r.parallel_ms for r in scalability)
                              + sum(r.total_parallel_ms for r in dynamics))
        broken = [claim for claim, holds in _paper_claims(report)
                  if holds is not run.oracle(True)]
        if text != first_text:
            broken.append("rendered report differs between evaluations")
        run.tally(simulations, len(broken), "; ".join(broken))
    run.end_window()
    run.extra["output_sha256"] = hashlib.sha256(
        (first_text or "").encode()).hexdigest()


# -------------------------------------------------------------- chaos_sweep --

CHAOS_TASKS = 96
_COORDINATOR_FAULTS = ("kill-primary-space", "kill-master", "partition")
_SHARD_FAULTS = ("kill-shard:1", "partition:shard:2", "gray-slow")


def chaos_sweep(run: Any) -> None:
    """Round *i*: one random worker-fault plan, one coordinator campaign,
    one 4-shard coordinator campaign; every seed derives from ``--seed``."""
    run.start_window()
    messages = payload_bytes = 0.0
    for index in range(run.units):
        seed = run.seed * 100_003 + run.first_unit + index
        with run.unit():
            campaigns = [
                adapter.chaos_experiment(
                    seed=seed, tasks=CHAOS_TASKS, random_plan=True,
                    codec="compact"),
                adapter.coordination_chaos_experiment(
                    seed=seed, tasks=CHAOS_TASKS, faults=_COORDINATOR_FAULTS,
                    codec="compact"),
                adapter.coordination_chaos_experiment(
                    seed=seed, tasks=CHAOS_TASKS, shards=4,
                    faults=_SHARD_FAULTS, codec="compact"),
            ]
        run.virtual_ms.append(sum(c.report.parallel_ms for c in campaigns))
        for result in campaigns:
            holds = run.oracle(
                result.correct and result.consistent
                and getattr(result, "exactly_once", True))
            aggregated = sum(result.report.results_by_worker.values())
            poisoned = len(result.report.dead_letters)
            missing = CHAOS_TASKS - aggregated - poisoned
            run.tally(CHAOS_TASKS, 0 if holds else max(1, missing),
                      f"campaign seed={seed} faults="
                      f"{getattr(result, 'faults', 'random-plan')}: correct="
                      f"{result.correct} consistent={result.consistent} "
                      f"exactly_once={getattr(result, 'exactly_once', None)}")
            text = result.prometheus
            messages += (adapter.prometheus_value(text, "net_messages")
                         + adapter.prometheus_value(text, "net_datagrams"))
            payload_bytes += (
                adapter.prometheus_value(text, "net_message_bytes")
                + adapter.prometheus_value(text, "net_datagram_bytes"))
    run.end_window()
    run.extra["net_messages"] = messages
    run.extra["net_bytes"] = payload_bytes


# ----------------------------------------------------------------- registry --

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "farm_batched",
        "headline path: warm 4-worker farm, 240-task strip job, prefetch 6, "
        "batched seed/drain; master/worker/codec/batch ops dominate, "
        "0.33 messages per task",
        op="task", unit="job", units_per_s=45.0, min_units=10,
        body=farm_batched),
    Workload(
        "farm_per_task",
        "same job on the paper-faithful path (prefetch 1, batch 1, 8 "
        "messages per task): sim handoff, net and RPC dispatch dominate; "
        "batching gains must not show here",
        op="task", unit="job", units_per_s=7.5, min_units=10,
        body=farm_per_task),
    Workload(
        "farm_hardened",
        "same job with 4 shards, hot standby + sync replication, WAL, "
        "admission and checkpoints: the itemised feature tax; host time "
        "follows virtual seconds",
        op="task", unit="job", units_per_s=0.39, min_units=6,
        body=farm_hardened),
    Workload(
        "space_mixed",
        "direct durable space over a file WAL, 20 000 standing entries, "
        "seeded read/write/take/txn mix, then recovery: match/index cost "
        "and snapshot stalls that farm medians hide",
        op="space op", unit="1000-op block", units_per_s=3.3, min_units=10,
        body=space_mixed),
    Workload(
        "paper_eval",
        "the paper's own evaluation (Figs 6-11, Exp 3, Table 2): the only "
        "workload where snmp, netmgmt, inference, jini, node and the real "
        "apps run; farm-path changes must leave it flat",
        op="simulation", unit="full evaluation", units_per_s=0.24,
        min_units=6, body=paper_eval, self_contained=True),
    Workload(
        "chaos_sweep",
        "seeded fault campaigns (worker, coordinator, 4-shard) with the "
        "history checker on: the only workload where operations can fail; "
        "a fast path that breaks exactly-once shows here",
        op="task", unit="round of 3 campaigns", units_per_s=1.2,
        min_units=10, body=chaos_sweep, self_contained=True),
)}
