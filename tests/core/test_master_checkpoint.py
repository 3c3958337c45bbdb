"""Master checkpoint/resume: crash the coordinator, finish exactly-once.

The checkpoint is a :class:`MasterCheckpointEntry` in the space itself —
the same survivability story the paper gives worker state, applied to
the coordinator's progress record.

Checkpoints follow progress, not the clock: ``checkpoint_ms`` bounds how
far the newest one may trail the master's state, and a job that says
nothing new writes nothing new except a renewal at half the lease.  The
second half of this file pins that rule; ``CHAOS_SEED`` seeds its
Hypothesis test, so CI's matrix seeds kill the master at different
instants.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.core.entries import MasterCheckpointEntry, ResultEntry, TaskEntry
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.core.master import Master
from repro.core.metrics import Metrics
from repro.errors import MasterCrashedError
from repro.experiments.chaos import coordination_chaos_experiment
from repro.experiments.harness import run_simulation
from repro.node import testbed_small
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams
from repro.telemetry import cluster_snapshot, cluster_table
from repro.tuplespace.space import JavaSpace
from repro.verify import check_history
from tests.core.toyapp import SumOfSquares

N = 12
EXPECTED = sum(i * i for i in range(N))


@pytest.fixture
def runtime():
    rt = SimulatedRuntime()
    yield rt
    rt.shutdown()


def make_master(runtime, space, metrics, app=None, **kwargs):
    cluster = testbed_small(runtime, workers=1)
    app = app or SumOfSquares(n=N, task_cost=10.0)
    app.aggregate = lambda results: sum(results.values())  # type: ignore
    kwargs.setdefault("checkpoint_ms", 100.0)
    kwargs.setdefault("dead_letter_poll_ms", 100.0)
    kwargs.setdefault("model_time", False)
    return Master(runtime, cluster.master, space, app, metrics, **kwargs)


def consumer(runtime, space, app_id, delay_ms=50.0, computed=None):
    """A scripted worker: takes tasks, writes squares after ``delay_ms``."""
    idle = 0
    while idle < 5:
        entry = space.take(TaskEntry(app_id=app_id), timeout_ms=200.0)
        if entry is None:
            idle += 1
            continue
        idle = 0
        runtime.sleep(delay_ms)
        if computed is not None:
            computed.append(entry.task_id)
        space.write(ResultEntry(app_id=app_id, task_id=entry.task_id,
                                payload=entry.payload * entry.payload,
                                worker="w0"))


def drive(runtime, root):
    proc = runtime.kernel.spawn(root, name="checkpoint-root")
    # A job that cannot finish polls forever: fail, do not spin.
    runtime.kernel.run_until_idle(max_events=200_000)
    if proc.error is not None:
        raise proc.error
    assert proc.finished
    return proc.result


def checkpoints_in(space, app_id="toy-squares"):
    return space.contents(MasterCheckpointEntry(app_id=app_id))


def checkpoint(master, tasks, results):
    """Write the next checkpoint as the run loop does: built, then riding
    a drain round trip that finds no result."""
    ckpt = master._build_checkpoint(tasks, results, {}, {})
    template = ResultEntry(app_id=master.app.app_id, tenant=master.tenant)
    assert master._drain_results(template, 0.0, ckpt) == []


def test_checkpoint_swap_keeps_exactly_the_newest(runtime):
    """Write seq+1 before taking seq: after each cycle exactly the newest
    checkpoint is in the space, and a crash mid-swap leaves at least one."""
    space = JavaSpace(runtime)
    master = make_master(runtime, space, Metrics(runtime))
    tasks = master.app.plan()

    def scenario():
        checkpoint(master, tasks, {0: 0})
        assert [c.seq for c in checkpoints_in(space)] == [1]
        checkpoint(master, tasks, {0: 0, 1: 1})
        assert [c.seq for c in checkpoints_in(space)] == [2]
        assert master.checkpoints_written == 2
        # Crash-window shape: both seqs present → resume adopts the max.
        master._write(MasterCheckpointEntry(
            app_id=master.app.app_id, seq=3, results={},
            dead={}, by_worker={}, outstanding=[]))
        assert master._adopt_checkpoint().seq == 3

    drive(runtime, scenario)


def test_completed_run_clears_every_checkpoint(runtime):
    space = JavaSpace(runtime)
    metrics = Metrics(runtime)
    master = make_master(runtime, space, metrics)

    def root():
        runtime.spawn(lambda: consumer(runtime, space, master.app.app_id),
                      name="consumer")
        return master.run()

    report = drive(runtime, root)
    assert report.complete
    assert report.solution == EXPECTED
    assert report.checkpoints_written >= 2        # ~600ms run, 100ms cadence
    assert checkpoints_in(space) == []            # settled: all retired
    assert metrics.events_named("master-checkpoint")


def test_resume_adopts_highest_seq_and_reseeds_only_untraced_tasks(runtime):
    """A cold master facing surviving checkpoints must adopt the newest,
    skip its settled tasks, and re-plan only the ones with no trace."""
    space = JavaSpace(runtime)
    master = make_master(runtime, space, Metrics(runtime))
    app_id = master.app.app_id
    settled = {0: 0, 1: 1, 2: 4}
    computed = []

    def root():
        # Two surviving checkpoints — the crash-mid-swap worst case.
        space.write(MasterCheckpointEntry(
            app_id=app_id, seq=1, results={0: 0}, dead={},
            by_worker={"w0": 1}, outstanding=list(range(1, N))))
        space.write(MasterCheckpointEntry(
            app_id=app_id, seq=2, results=dict(settled), dead={},
            by_worker={"w0": 3}, outstanding=list(range(3, N))))
        runtime.spawn(lambda: consumer(runtime, space, app_id,
                                       computed=computed),
                      name="consumer")
        return master.run()

    report = drive(runtime, root)
    assert report.complete
    assert report.resumed_from_seq == 2
    assert report.solution == EXPECTED
    # The settled prefix was never recomputed — only re-seeded tasks ran.
    assert sorted(computed) == list(range(3, N))
    assert checkpoints_in(space) == []


def test_killed_master_resumes_and_aggregates_exactly_once(runtime):
    """Kill the master after ≥1 checkpoint; its successor must finish the
    job with zero duplicate aggregations (judged per final incarnation)."""
    space = JavaSpace(runtime)
    metrics1, metrics2 = Metrics(runtime), Metrics(runtime)
    first = make_master(runtime, space, metrics1)
    second = make_master(runtime, space, metrics2)
    app_id = first.app.app_id

    def root():
        runtime.spawn(lambda: consumer(runtime, space, app_id),
                      name="consumer")
        runtime.call_later(400.0, first.crash)
        with pytest.raises(MasterCrashedError):
            first.run()
        assert first.checkpoints_written >= 1
        assert checkpoints_in(space)          # progress survived the kill
        return second.run()

    report = drive(runtime, root)
    assert report.complete
    assert report.solution == EXPECTED
    assert report.resumed_from_seq >= 1
    # Exactly-once at the survivor: no task folded twice.
    folded = [p["task_id"] for _, p in metrics2.events_named("result-aggregated")]
    assert len(folded) == len(set(folded))
    assert checkpoints_in(space) == []


def test_checkpoint_lease_ages_out_abandoned_runs(runtime):
    """An abandoned run's checkpoint must not outlive its lease — a later
    unrelated run starts clean instead of adopting stale progress."""
    space = JavaSpace(runtime)
    master = make_master(runtime, space, Metrics(runtime),
                         checkpoint_lease_ms=500.0)
    tasks = master.app.plan()

    def scenario():
        checkpoint(master, tasks, {0: 0})
        assert checkpoints_in(space)
        runtime.sleep(1_000.0)
        assert checkpoints_in(space) == []
        assert master._adopt_checkpoint() is None

    drive(runtime, scenario)


# -- checkpoints follow progress, not the clock -------------------------------


def bursts(runtime, space, app_id, schedule):
    """A scripted farm: take every task at once, then write the results
    back in bursts — ``schedule`` is ``[(at_ms, how_many), ...]``."""
    taken = space.take_multiple(TaskEntry(app_id=app_id), N, timeout_ms=200.0)
    for at_ms, count in schedule:
        runtime.sleep(at_ms - runtime.now())
        for entry in [taken.pop() for _ in range(count)]:
            space.write(ResultEntry(app_id=app_id, task_id=entry.task_id,
                                    payload=entry.payload * entry.payload,
                                    worker="w0"))


def run_bursts(runtime, schedule, **kwargs):
    """One job fed by :func:`bursts`: the report, the checkpoints written
    and the instants results were folded (the job starts at t = 0)."""
    space, metrics = JavaSpace(runtime), Metrics(runtime)
    master = make_master(runtime, space, metrics, drain_batch=N, **kwargs)

    def root():
        runtime.spawn(lambda: bursts(runtime, space, master.app.app_id,
                                     schedule), name="farm")
        return master.run()

    report = drive(runtime, root)
    assert report.complete and report.solution == EXPECTED
    return (report, metrics.events_named("master-checkpoint"),
            [t for t, _ in metrics.events_named("result-aggregated")])


def test_a_job_that_makes_no_progress_writes_nothing_after_its_first(runtime):
    """Seeded-nothing-back is worth one checkpoint; five more periods of
    silence are worth none."""
    report, written, _ = run_bursts(runtime, [(650.0, N)])
    assert [p["results"] for _, p in written] == [0]
    (at, first), = written
    assert 100.0 <= at <= 101.0 and first["reason"] == "progress"
    assert report.checkpoints_written == 1


def test_k_bursts_of_results_cost_at_most_k_plus_one_checkpoints(runtime):
    schedule = [(350.0, 4), (700.0, 4), (1_050.0, 4)]
    report, written, _ = run_bursts(runtime, schedule)
    assert 2 <= report.checkpoints_written <= len(schedule) + 1
    # Each one says something its predecessor did not.
    counts = [p["results"] for _, p in written]
    assert counts == sorted(set(counts))
    assert {p["reason"] for _, p in written} == {"progress"}


def test_unrecorded_progress_is_checkpointed_within_the_bound(runtime):
    """While the newest checkpoint lacks a result, it is never older than
    ``checkpoint_ms`` plus one aggregation charge (plus, over a proxy,
    one drain round trip — nothing on this in-process space).

    The period rule let it lag almost two periods: a result landing just
    before the period lapsed found the checkpoint "not yet due" and
    started a drain that slept a whole further period.
    """
    charge = 2.0 * 2        # SumOfSquares' aggregation cost x burst size
    schedule = [(110.0, 2), (195.0, 2), (330.0, 2), (398.0, 2), (530.0, 2),
                (600.0, 2)]
    report, written, folded = run_bursts(
        runtime, schedule, model_time=True, dead_letter_poll_ms=1_000.0,
        app=SumOfSquares(n=N, task_cost=10.0, planning_cost=0.0))
    worst = 0.0
    for settled, t in enumerate(folded, start=1):
        recorded = [at for at, p in written
                    if at >= t and p["results"] >= settled]
        worst = max(worst,
                    (recorded[0] if recorded else report.parallel_ms) - t)
    assert 50.0 < worst <= 100.0 + charge, worst


def test_a_stalled_job_keeps_one_live_checkpoint_and_resumes_from_it(runtime):
    """One 100 s task, a 60 s lease: the lease is renewed at half its
    life, the space holds a checkpoint at every instant, and a master
    killed late in the stall resumes from the renewal."""
    space = JavaSpace(runtime)
    metrics1, metrics2 = Metrics(runtime), Metrics(runtime)
    first = make_master(runtime, space, metrics1, checkpoint_ms=1_000.0,
                        dead_letter_poll_ms=1_000.0, drain_batch=N)
    second = make_master(runtime, space, metrics2, checkpoint_ms=1_000.0,
                         dead_letter_poll_ms=1_000.0, drain_batch=N)
    app_id = first.app.app_id
    live = []

    def watch():
        runtime.sleep(1_001.0)
        while runtime.now() < 95_000.0:
            live.append(len(checkpoints_in(space)))
            runtime.sleep(500.0)

    def root():
        runtime.spawn(lambda: bursts(runtime, space, app_id,
                                     [(2_500.0, N - 1), (100_000.0, 1)]),
                      name="farm")
        runtime.spawn(watch, name="watch")
        runtime.call_later(95_000.0, first.crash)
        with pytest.raises(MasterCrashedError):
            first.run()
        return second.run()

    report = drive(runtime, root)
    assert report.complete and report.solution == EXPECTED
    assert live and set(live) == {1}
    written = [p for _, p in metrics1.events_named("master-checkpoint")]
    # Seeded, the burst, then nothing but renewals at lease / 2.
    assert [p["reason"] for p in written] == \
        ["progress", "progress", "lease", "lease", "lease"]
    assert all(abs(p["age_ms"] - 30_000.0) < 1.0 for p in written[2:])
    assert report.resumed_from_seq == written[-1]["seq"]
    (_, resumed), = metrics2.events_named("master-resumed")
    assert resumed["results"] == N - 1 and resumed["reseeded"] == 1


@pytest.mark.parametrize("chaos_seed", [1, 2, 3])
def test_killed_master_reseeds_no_more_than_the_period_rule_did(chaos_seed):
    """``repro chaos --seed S --fault kill-master`` under the period rule
    wrote its only pre-kill checkpoint at 1 738 ms (5 results) and the
    successor re-seeded 12 tasks, on each of the three seeds."""
    result = coordination_chaos_experiment(seed=chaos_seed,
                                           faults=("kill-master",))
    assert result.exactly_once, result.format_summary()
    (_, resumed), = result.events_named("master-resumed")
    assert dict(resumed)["reseeded"] <= 12, result.format_summary()
    kill = result.events_named("master-kill-injected")[0][0]
    adopted = [t for t, p in result.events_named("master-checkpoint")
               if dict(p)["seq"] == result.report.resumed_from_seq][-1]
    assert kill - adopted <= 1_000.0 + 50.0
    assert f"({kill - adopted:.1f} ms old at the kill)" \
        in result.format_summary()


def test_registry_and_console_tell_quiet_from_stuck():
    """A postmortem reads "no checkpoint because no progress" as a flat
    count under a bounded age — mid-job, without a rerun."""
    def body(runtime):
        cluster = testbed_small(runtime, workers=2, streams=RandomStreams(3))
        framework = AdaptiveClusterFramework(
            runtime, cluster, SumOfSquares(n=8, task_cost=2_000.0),
            FrameworkConfig(monitoring=False, master_checkpoint_ms=500.0,
                            worker_prefetch=4, master_drain_batch=8))
        framework.start()
        seen = {}

        def look():
            runtime.sleep(1_900.0)      # workers still on their first batch
            seen["snapshot"] = cluster_snapshot(framework)
            seen["table"] = cluster_table(framework)
            seen["text"] = framework.registry.prometheus_text()

        runtime.spawn(look, name="look")
        assert framework.run().complete
        framework.shutdown()
        return seen, framework.master

    seen, master = run_simulation(body)
    state = seen["snapshot"]["master"]
    assert state["checkpoints_written"] == 1        # seeded; nothing since
    assert 500.0 < state["checkpoint_age_ms"] < 1_900.0
    assert (f"master: checkpoints=1 checkpoint_age="
            f"{state['checkpoint_age_ms']:,.0f}") in seen["table"]
    samples = dict(line.rsplit(" ", 1) for line in seen["text"].splitlines())
    app = '{app="toy-squares"}'
    assert float(samples["master_checkpoints_written" + app]) == 1
    assert float(samples["master_checkpoint_age_ms" + app]) == \
        state["checkpoint_age_ms"]
    assert master.checkpoints_written >= 2          # ...until results came


HARDENED_TASKS = 48


def killed_hardened_job(kill_at_ms, cluster_seed):
    """The hardened shape — 4 shards, prefetch 6, hot standbys with
    synchronous replication — with the master killed at ``kill_at_ms``."""
    resumes = []
    resume_from = Master._resume_from

    def spy(self, checkpoint, tasks, results, dead, by_worker):
        seeded, task_entry = [], self._task_entry
        self._task_entry = lambda tid, payload: (
            seeded.append(tid), task_entry(tid, payload))[1]
        try:
            return resume_from(self, checkpoint, tasks, results, dead,
                               by_worker)
        finally:
            del self._task_entry
            resumes.append((checkpoint.seq,
                            set(checkpoint.results) | set(checkpoint.dead),
                            seeded))

    def body(runtime):
        cluster = testbed_small(runtime, workers=4,
                                streams=RandomStreams(cluster_seed))
        app = SumOfSquares(n=HARDENED_TASKS, task_cost=300.0,
                           planning_cost=5.0, aggregation_cost=10.0)
        framework = AdaptiveClusterFramework(
            runtime, cluster, app,
            FrameworkConfig(
                monitoring=False, compute_real=True,
                transactional_takes=True, task_txn_lease_ms=10_000.0,
                straggler_timeout_ms=2_000.0,
                rpc_timeout_ms=1_000.0, dead_letter_poll_ms=500.0,
                worker_prefetch=6, master_seed_batch=HARDENED_TASKS,
                master_drain_batch=HARDENED_TASKS, shards=4,
                hot_standby=True, durable_space=True,
                master_checkpoint_ms=500.0, record_history=True))
        framework.start()
        framework.start_all_workers()
        runtime.call_later(kill_at_ms, framework.kill_master)
        report = framework.run_with_recovery()
        framework.shutdown()
        events = framework.metrics.events
        restarted = [t for t, name, _ in events if name == "master-restarted"]
        return dict(
            report=report, restarts=framework.master_restarts,
            history=check_history(framework.history,
                                  framework.final_contents()),
            written=[(t, p["seq"], p["outstanding"]) for t, name, p in events
                     if name == "master-checkpoint"],
            folded=[p["task_id"] for t, name, p in events
                    if name == "result-aggregated"
                    and t >= (restarted[-1] if restarted else 0.0)])

    with mock.patch.object(Master, "_resume_from", spy):
        observed = run_simulation(body)
    observed["resumes"] = resumes
    return observed


@seed(int(os.environ.get("CHAOS_SEED", "0")))
@settings(max_examples=12, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(kill_at_ms=st.floats(min_value=50.0, max_value=4_200.0),
       cluster_seed=st.sampled_from([11, 23]))
def test_master_killed_at_any_instant_of_a_hardened_job(kill_at_ms,
                                                        cluster_seed):
    run = killed_hardened_job(kill_at_ms, cluster_seed)
    report = run["report"]
    assert report.complete
    assert report.solution == sum(i * i for i in range(HARDENED_TASKS))
    assert run["history"].ok, run["history"]
    # Exactly-once: adopted from the checkpoint or folded by the survivor,
    # never both, never twice.
    adopted, settled, reseeded = (run["resumes"] or [(None, set(), [])])[0]
    assert sorted(run["folded"]) == \
        sorted(set(range(HARDENED_TASKS)) - settled)
    assert report.resumed_from_seq == adopted
    before = [(seq, outstanding) for t, seq, outstanding in run["written"]
              if t <= kill_at_ms]
    if not run["restarts"] or not before:
        # The job beat the kill, or died before it had said anything: a
        # cold start with nothing to adopt.
        assert adopted is None
        return
    newest, outstanding = before[-1]
    assert adopted == newest
    assert settled.isdisjoint(reseeded)
    assert len(reseeded) <= outstanding
