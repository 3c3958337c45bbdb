"""Chaos experiment: self-healing under a seeded fault campaign.

The acceptance scenario for the robustness layer: a deployment with
reconnecting proxies, transactional takes and poison-task quarantine runs
a bag-of-tasks job while a :class:`~repro.faults.FaultPlan` crashes a
worker, flaps a link, and restarts the space server — plus one poison
task whose application code always raises.  The run must still terminate
with the correct solution over the non-poison tasks, the poison task
dead-lettered in the :class:`~repro.core.master.MasterReport`, and an
identical recovery-event trace when replayed from the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.application import Application, ClassLoadProfile, Task
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.core.master import MasterReport
from repro.errors import ConfigurationError
from repro.experiments.harness import run_simulation
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.node.cluster import testbed_small
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams
from repro.verify import HistoryReport, check_history

__all__ = ["PoisonedSquares", "TenantSquares", "ChaosResult",
           "chaos_experiment", "default_chaos_plan",
           "verify_chaos_determinism",
           "CoordinationChaosResult", "coordination_chaos_plan",
           "coordination_chaos_experiment",
           "verify_coordination_determinism", "NEMESIS_FAULTS",
           "ContentionResult", "contention_chaos_experiment",
           "contention_isolation", "verify_contention_determinism",
           "TENANT_STRIDE"]


class PoisonedSquares(Application):
    """Sum of squares with designated poison tasks that always raise.

    Unlike the strict toy app, ``aggregate`` tolerates a partial result
    set — the partial-result policy is the point of the experiment."""

    app_id = "chaos-squares"

    def __init__(self, n: int = 24, poison: Sequence[int] = (7,),
                 task_cost: float = 800.0) -> None:
        self.n = n
        self.poison = frozenset(poison)
        self._task_cost = task_cost

    def plan(self) -> list[Task]:
        return [Task(task_id=i, payload=i) for i in range(self.n)]

    def execute(self, payload: Any) -> Any:
        if payload in self.poison:
            raise RuntimeError(f"poison task {payload}")
        return payload * payload

    def aggregate(self, results: dict[int, Any]) -> Any:
        return sum(results.values())

    def expected_solution(self) -> int:
        """The correct sum over every task that can possibly complete."""
        return sum(i * i for i in range(self.n) if i not in self.poison)

    def task_cost_ms(self, task: Task) -> float:
        return self._task_cost

    def planning_cost_ms(self, task: Task) -> float:
        return 2.0

    def aggregation_cost_ms(self, task_id: int, result: Any) -> float:
        return 1.0

    def classload_profile(self) -> ClassLoadProfile:
        return ClassLoadProfile(work_ref_ms=100.0, demand_percent=80.0,
                                bundle_bytes=50_000)


#: The recovery-observability events that make up the replayable trace.
TRACE_EVENTS = frozenset({
    "fault-injected", "fault-healed",
    "proxy-reconnected", "proxy-retry",
    "worker-reconnect", "worker-recovered", "worker-gave-up", "worker-error",
    "task-requeued", "dead-letter", "dead-letter-received",
    "task-replicated", "master-gave-up",
    # coordinator faults (durability / failover / checkpoint-resume)
    "space-primary-killed", "space-shard-killed",
    "standby-caught-up", "standby-promoted",
    "primary-heartbeat-miss", "failover-complete", "proxy-rediscovered",
    "master-kill-injected", "master-killed", "master-restarted",
    "master-checkpoint", "master-resumed", "master-space-retry",
    "txn-lease-expired", "task-txn-expired", "stale-sample",
    # split-brain fencing (epoch fences, partition/pause/gray nemesis)
    "primary-fenced", "standby-rejoining", "proxy-fenced",
    # multi-tenancy (admission control, fair share, preemption)
    "admission-rejected", "master-admission-retry", "tenant-preempted",
})


@dataclass(kw_only=True)
class _CampaignResult:
    """What every campaign reports, whatever it injected."""

    seed: int
    trace: list[tuple[float, str, tuple]] = field(default_factory=list)
    faults_injected: int = 0
    faults_healed: int = 0
    #: Telemetry artifacts when the campaign ran with ``trace=True``:
    #: the tracer (export via ``write_chrome``/``write_jsonl``) and the
    #: final Prometheus registry dump.  Deliberately excluded from the
    #: determinism comparison — that compares the recovery-event trace.
    tracer: Any = None
    prometheus: str = ""
    #: Consistency-checker verdict over the recorded op history.
    history_report: Optional[HistoryReport] = None
    #: RPCs the epoch fence rejected across every server incarnation.
    fenced_rpcs: int = 0
    #: The framework's black-box flight recorder — its ``bundles`` hold
    #: any postmortems dumped during the campaign (promotions, gate
    #: failures); the CLI writes them to disk for CI to upload.
    flight: Any = None

    @property
    def postmortems(self) -> list:
        return list(self.flight.bundles) if self.flight is not None else []

    @property
    def consistent(self) -> bool:
        """True iff the history checker found no violations."""
        return self.history_report is None or self.history_report.ok

    def events_named(self, name: str) -> list[tuple[float, tuple]]:
        return [(t, p) for t, n, p in self.trace if n == name]

    def _history_lines(self) -> list[str]:
        if self.history_report is None:
            return []
        return ["  " + self.history_report.summary().replace("\n", "\n  ")]


@dataclass
class ChaosResult(_CampaignResult):
    """Everything the chaos acceptance criteria check."""

    report: MasterReport
    expected_solution: int

    @property
    def correct(self) -> bool:
        return self.report.solution == self.expected_solution

    def fingerprint(self) -> tuple:
        """What a replay from the same seed must reproduce."""
        return self.trace, self.report.solution

    def format_summary(self) -> str:
        r = self.report
        lines = [
            f"Chaos run — seed {self.seed}",
            f"  solution   : {r.solution} (expected {self.expected_solution}, "
            f"{'OK' if self.correct else 'WRONG'})",
            f"  complete   : {r.complete}; dead letters: {dict(r.dead_letters)}",
            f"  faults     : {self.faults_injected} injected, "
            f"{self.faults_healed} healed",
            f"  duplicates : {r.duplicate_results}; replicas: {r.replicated_tasks}",
            f"  fenced     : {self.fenced_rpcs} stale-epoch RPCs rejected",
            f"  trace      : {len(self.trace)} recovery events",
            *self._history_lines(),
        ]
        for t, name, payload in self.trace:
            lines.append(f"    t={t:>9.1f}ms {name:<20} {dict(payload)}")
        return "\n".join(lines)


def _campaign(seed: int, workers: int, app: Application,
              config: FrameworkConfig, plan: Callable, run: Callable,
              result: Callable, settle_ms: float = 0.0) -> Any:
    """The scaffold every campaign shares, replayable from ``seed``:
    deploy → arm → run → disarm → (settle) → shut down → check → dump.

    ``plan(streams, worker hostnames)`` gives the fault plan (``None``:
    no injector); ``run(runtime, framework)`` drives the job, and
    ``result(framework, its outcome, **common fields)`` reports it.
    """

    def body(runtime: SimulatedRuntime) -> Any:
        streams = RandomStreams(seed)
        cluster = testbed_small(runtime, workers=workers, streams=streams)
        framework = AdaptiveClusterFramework(runtime, cluster, app, config)
        framework.start()
        framework.start_all_workers()
        campaign = plan(streams, [node.hostname for node in cluster.workers])
        injector = None
        if campaign is not None:
            framework.flight.fault_plan = campaign.to_dict()
            injector = FaultInjector.for_framework(framework, campaign)
            injector.arm()
        outcome = run(runtime, framework)
        if injector is not None:
            injector.disarm()   # late plan entries must not hit the teardown
        if settle_ms:
            runtime.sleep(settle_ms)
        framework.shutdown()
        history_report = check_history(framework.history,
                                       framework.final_contents())
        # Gate failures freeze the black box: the bundle names the
        # campaign and holds the trace/metrics/history tail around
        # the violation, so a red CI cell ships its own evidence.
        if not history_report.ok:
            framework.flight.dump("checker-violation")
        verdict = result(
            framework, outcome,
            seed=seed,
            trace=[(t, name, tuple(sorted(payload.items())))
                   for t, name, payload in framework.metrics.events
                   if name in TRACE_EVENTS],
            faults_injected=injector.injected if injector else 0,
            faults_healed=injector.healed if injector else 0,
            tracer=framework.tracer,
            prometheus=framework.registry.prometheus_text(),
            history_report=history_report,
            fenced_rpcs=framework.total_fenced_rpcs(),
            flight=framework.flight,
        )
        if not verdict.correct:
            framework.flight.dump("wrong-solution")
        return verdict

    return run_simulation(body)


def _config(give_up_after_ms: float, prefetch: int, trace: bool,
            shards: int, **extra: Any) -> FrameworkConfig:
    """The deployment every campaign runs on, plus what only one adds.
    ``prefetch`` and ``shards`` pass through unclamped: 0 is the
    framework's error to raise, not a different campaign."""
    return FrameworkConfig(
        monitoring=False,           # faults drive the run, not load
        compute_real=True,
        transactional_takes=True,   # crash-safe takes
        rpc_timeout_ms=1_000.0,     # notice a partitioned server fast
        dead_letter_poll_ms=500.0,
        give_up_after_ms=give_up_after_ms,
        worker_prefetch=prefetch,
        master_seed_batch=prefetch,
        master_drain_batch=prefetch,
        trace=trace,
        shards=shards,
        record_history=True,
        **extra,
    )


def _verify(experiment: Callable, seed: int, kwargs: dict,
            first: Any) -> bool:
    """Replay ``experiment`` once; True iff the replay's fingerprint equals
    ``first``'s, the run already made (a fresh run when None)."""
    if first is None:
        first = experiment(seed=seed, **kwargs)
    return first.fingerprint() == experiment(seed=seed, **kwargs).fingerprint()


def _require_compact(codec: str) -> None:
    if codec != "compact":  # keyword kept for benchmarks/suite/adapter.py
        raise ConfigurationError(
            f"unknown codec {codec!r}; expected 'compact'")


def default_chaos_plan(hosts: Sequence[str]) -> FaultPlan:
    """The hand-written acceptance campaign: one of each failure mode."""
    hosts = list(hosts)
    plan = FaultPlan()
    if len(hosts) > 0:
        plan.add(FaultEvent(2_500.0, FaultKind.WORKER_CRASH, target=hosts[0]))
    if len(hosts) > 1:
        plan.add(FaultEvent(4_000.0, FaultKind.LINK_FLAP, target=hosts[1],
                            duration_ms=1_500.0))
    plan.add(FaultEvent(6_000.0, FaultKind.SERVER_RESTART, duration_ms=800.0))
    return plan


def chaos_experiment(
    seed: int = 42,
    workers: int = 4,
    tasks: int = 24,
    random_plan: bool = False,
    prefetch: int = 1,
    trace: bool = False,
    shards: int = 1,
    codec: str = "compact",
) -> ChaosResult:
    """Run the acceptance scenario; fully replayable from ``seed``.

    ``prefetch`` > 1 runs the whole pipelined data path (worker batch
    cycles, batched RPC, master batch seed/drain) under the same fault
    campaign — faults then land mid-batch as well as mid-task.

    ``shards`` > 1 partitions the space (all shard servers co-hosted on
    the master node) — the job result must be byte-identical to the
    unsharded run, since routing never changes *what* completes, only
    *where* entries live.

    ``trace`` records telemetry spans alongside the campaign.  Trace IDs
    travel in the entries either way, so the virtual timeline — and hence
    the replayable recovery trace — is identical with it on or off.
    """
    _require_compact(codec)
    app = PoisonedSquares(n=tasks)

    def campaign(streams: RandomStreams, hostnames: list[str]) -> FaultPlan:
        if random_plan:
            return FaultPlan.generate(streams.stream("fault-plan"), hostnames)
        return default_chaos_plan(hostnames)

    return _campaign(
        seed, workers, app,
        _config(30_000.0, prefetch, trace, shards,
                straggler_timeout_ms=2_000.0,   # replicate around dead workers
                max_task_attempts=2),
        plan=campaign,
        run=lambda runtime, framework: framework.master.run(),
        result=lambda framework, report, **common: ChaosResult(
            report=report, expected_solution=app.expected_solution(),
            **common),
    )


def verify_chaos_determinism(seed: int = 42, *,
                             first: Optional[ChaosResult] = None,
                             **kwargs: Any) -> bool:
    """Replay the campaign; True iff the recovery trace and solution equal
    ``first``'s (the run already made; by default a fresh one)."""
    return _verify(chaos_experiment, seed, kwargs, first)


# -- coordinator chaos: survive the space primary and the master itself -------


@dataclass
class CoordinationChaosResult(_CampaignResult):
    """Acceptance data for the coordinator-fault campaign."""

    faults: tuple[str, ...]
    report: MasterReport
    expected_solution: int
    #: (task_id, worker) per result-aggregated event, in order.
    aggregations: list[tuple[float, int]] = field(default_factory=list)
    master_restarts: int = 0

    @property
    def correct(self) -> bool:
        return self.report.complete and \
            self.report.solution == self.expected_solution

    def final_aggregations(self) -> dict[int, int]:
        """task_id → times aggregated by the *final* master incarnation.

        Aggregations a killed master made after its last checkpoint died
        with it and never reach the solution, so exactly-once is judged on
        the incarnation that actually produced the report.
        """
        restarts = [t for t, name, _ in self.trace if name == "master-restarted"]
        cutoff = restarts[-1] if restarts else float("-inf")
        counts: dict[int, int] = {}
        for t, task_id in self.aggregations:
            if t >= cutoff:
                counts[task_id] = counts.get(task_id, 0) + 1
        return counts

    @property
    def exactly_once(self) -> bool:
        """Complete, correct, and no task folded twice into the solution."""
        return self.correct and \
            all(n == 1 for n in self.final_aggregations().values())

    def fingerprint(self) -> tuple:
        """What a replay from the same seed must reproduce."""
        return self.trace, self.report.solution, self.aggregations

    def format_summary(self) -> str:
        r = self.report
        dup_aggs = {tid: n for tid, n in self.final_aggregations().items()
                    if n != 1}
        kills = [t for t, n, _ in self.trace if n == "master-kill-injected"]
        age = [f" ({kills[-1] - t:.1f} ms old at the kill)"
               for t, n, p in self.trace if n == "master-checkpoint"
               and dict(p)["seq"] == r.resumed_from_seq and kills]
        lines = [
            f"Coordination chaos run — seed {self.seed}, "
            f"faults {list(self.faults)}",
            f"  solution    : {r.solution} (expected {self.expected_solution},"
            f" {'OK' if self.correct else 'WRONG'})",
            f"  complete    : {r.complete}; exactly-once: "
            f"{'yes' if self.exactly_once else f'NO {dup_aggs}'}",
            f"  restarts    : {self.master_restarts} master; checkpoints "
            f"{r.checkpoints_written}, resumed from seq {r.resumed_from_seq}"
            f"{age[-1] if age else ''}",
            f"  faults      : {self.faults_injected} injected; duplicates "
            f"{r.duplicate_results}; replicas {r.replicated_tasks}",
            f"  fenced      : {self.fenced_rpcs} stale-epoch RPCs rejected",
            f"  trace       : {len(self.trace)} recovery events",
            *self._history_lines(),
        ]
        for t, name, payload in self.trace:
            lines.append(f"    t={t:>9.1f}ms {name:<22} {dict(payload)}")
        return "\n".join(lines)


#: Nemesis fault kinds accepted by :func:`coordination_chaos_plan`, with
#: default durations.  Partition and pause outlive the primary lease
#: (``failover.HEARTBEAT_MS * failover.MAX_MISSES`` = 750 ms)
#: so a mid-fault failover — and hence fencing — actually happens.
NEMESIS_FAULTS = {
    "partition": (FaultKind.PARTITION, 2_000.0),
    "pause": (FaultKind.PAUSE, 1_000.0),
    "gray-slow": (FaultKind.GRAY_SLOW, 3_000.0),
}


#: When a coordination campaign's first fault lands, the spacing of the
#: next ones (each lands mid-run), and a gray slow's latency factor.
FIRST_FAULT_AT_MS = 3_000.0
FAULT_SPACING_MS = 1_500.0
SLOW_FACTOR = 8.0


def coordination_chaos_plan(faults: Sequence[str]) -> FaultPlan:
    """One coordinator fault per entry, spaced so each lands mid-run.

    Entries are ``"kill-primary-space"``, ``"kill-master"``,
    ``"kill-shard:<i>"`` (crash shard ``i``'s primary server), or one of
    the nemesis faults ``"partition"`` / ``"pause"`` / ``"gray-slow"``
    with an optional target suffix: ``"partition"`` or
    ``"partition:space"`` hit the (first) space host,
    ``"partition:shard:<i>"`` hits shard ``i``'s host, and any other
    suffix is a literal hostname (e.g. ``"pause:worker2"``).
    """
    plan = FaultPlan()
    kinds = {"kill-primary-space": FaultKind.KILL_PRIMARY_SPACE,
             "kill-master": FaultKind.KILL_MASTER}
    for index, fault in enumerate(faults):
        at_ms = FIRST_FAULT_AT_MS + index * FAULT_SPACING_MS
        name, _, suffix = fault.partition(":")
        if name in NEMESIS_FAULTS:
            kind, duration_ms = NEMESIS_FAULTS[name]
            plan.add(FaultEvent(at_ms, kind, target=suffix or "space",
                                duration_ms=duration_ms,
                                factor=SLOW_FACTOR))
        elif name == "kill-shard":
            plan.add(FaultEvent(at_ms, FaultKind.KILL_SHARD,
                                target=str(int(suffix))))
        else:
            plan.add(FaultEvent(at_ms, kinds[fault]))
    return plan


def coordination_chaos_experiment(
    seed: int = 42,
    workers: int = 4,
    tasks: int = 24,
    faults: Sequence[str] = ("kill-primary-space",),
    prefetch: int = 1,
    trace: bool = False,
    shards: int = 1,
    codec: str = "compact",
) -> CoordinationChaosResult:
    """Kill the space primary and/or the master mid-run; the job must
    still complete every task exactly-once.  Replayable from ``seed``.

    With ``prefetch`` > 1 the coordinator faults hit the pipelined path:
    a worker's in-flight batch (several tasks under one transaction) is
    killed mid-swap and must revert or commit as a unit.

    ``shards`` > 1 partitions the space; ``"kill-shard:<i>"`` faults then
    crash one shard's primary and that shard's supervisor promotes its
    hot standby while the other shards keep serving."""
    _require_compact(codec)
    faults = tuple(faults)
    # No poison: exactly-once over *every* task is the criterion here.
    app = PoisonedSquares(n=tasks, poison=())

    return _campaign(
        seed, workers, app,
        _config(60_000.0, prefetch, trace, shards,
                task_txn_lease_ms=10_000.0,
                straggler_timeout_ms=2_000.0,
                max_task_attempts=2,
                hot_standby=True,
                master_checkpoint_ms=1_000.0,
                # Sharded chaos spreads primaries off the master node:
                # "partition:shard:i" must be able to sever a primary
                # from its (master-hosted) supervisor, or split-brain
                # fencing has nothing to bite on.
                shard_placement="spread" if shards > 1 else "master"),
        plan=lambda streams, hostnames: coordination_chaos_plan(faults),
        run=lambda runtime, framework: framework.run_with_recovery(),
        result=lambda framework, report, **common: CoordinationChaosResult(
            faults=faults, report=report,
            expected_solution=app.expected_solution(),
            aggregations=[(t, payload["task_id"])
                          for t, name, payload in framework.metrics.events
                          if name == "result-aggregated"],
            master_restarts=framework.master_restarts,
            **common),
    )


def verify_coordination_determinism(
        seed: int = 42, *, first: Optional[CoordinationChaosResult] = None,
        **kwargs: Any) -> bool:
    """Replay the coordinator campaign; True iff its trace, solution and
    aggregations equal ``first``'s (by default a fresh run's)."""
    return _verify(coordination_chaos_experiment, seed, kwargs, first)


# -- multi-tenant contention: admission, fair share, preemption ----------------


#: Task-id namespace width per tenant.  Task identity is
#: ``(app_id, task_id)`` and every tenant shares the app_id, so tenant
#: ``i`` plans ids ``[i * TENANT_STRIDE, i * TENANT_STRIDE + n)`` —
#: a collision would corrupt both the master's result dedup and the
#: history checker's entry keys.
TENANT_STRIDE = 1_000_000

VICTIM = "victim"
AGGRESSOR = "aggressor"

#: The victim's tasks.
VICTIM_TASKS = 24
#: The aggressor's in-flight quota (it floods ten times that many tasks)
#: and its token-bucket write rate.
AGGRESSOR_QUOTA = 4
AGGRESSOR_RATE_PER_S = 10.0
#: Each bystander tenant's tasks and their cost (the aggressor's too).
BYSTANDER_TASKS = 2
BYSTANDER_TASK_COST = 100.0


class TenantSquares(PoisonedSquares):
    """One tenant's slice of the shared sum-of-squares job family.

    Same ``app_id`` as every other tenant (workers load exactly one
    class set), disjoint task-id range (``base`` must be a multiple of
    :data:`TENANT_STRIDE`)."""

    def __init__(self, base: int, n: int, task_cost: float = 400.0) -> None:
        super().__init__(n=n, poison=(), task_cost=task_cost)
        self.base = base

    def plan(self) -> list[Task]:
        return [Task(task_id=self.base + i, payload=self.base + i)
                for i in range(self.n)]

    def expected_solution(self) -> int:
        return sum((self.base + i) ** 2 for i in range(self.n)
                   if (self.base + i) not in self.poison)


@dataclass
class ContentionResult(_CampaignResult):
    """Acceptance data for the multi-tenant contention campaign."""

    tenants: int
    aggressor: bool
    #: tenant → its master's report (absent if the run raised).
    reports: dict[str, MasterReport] = field(default_factory=dict)
    #: tenant → expected solution over its task slice.
    expected: dict[str, int] = field(default_factory=dict)
    #: tenant → "ExcType: message" for masters that failed — the
    #: aggressor legitimately dies here when admission starves it out.
    errors: dict[str, str] = field(default_factory=dict)
    #: tenant → fair-share take grants (space DRR dispatcher).
    grants: dict[str, int] = field(default_factory=dict)
    #: Admission totals over every server: checked/admitted/rejected/shed.
    admission_totals: dict[str, int] = field(default_factory=dict)
    #: The aggressor's own admitted/rejected/shed counters.
    aggressor_admission: dict[str, int] = field(default_factory=dict)
    preemptions: int = 0
    tasks_released: int = 0
    #: Simulated timestamps of the victim's result aggregations — the
    #: summary's p99 gap (the victim's longest stalls) derives from them.
    victim_completions_ms: list[float] = field(default_factory=list)

    @property
    def victim_report(self) -> Optional[MasterReport]:
        return self.reports.get(VICTIM)

    @property
    def victim_throughput_per_s(self) -> float:
        """Victim tasks completed per wall-clock second of its run."""
        report = self.victim_report
        if report is None or report.parallel_ms <= 0:
            return 0.0
        return report.task_count / (report.parallel_ms / 1000.0)

    @property
    def victim_p99_gap_ms(self) -> float:
        """p99 of the gaps between consecutive victim completions.

        The stall measure the summary prints beside the throughput: an
        aggressor that starves the victim shows up as long silent
        stretches between its results even when the final throughput
        number survives."""
        times = sorted(self.victim_completions_ms)
        if len(times) < 2:
            return 0.0
        gaps = sorted(b - a for a, b in zip(times, times[1:]))
        return gaps[min(len(gaps) - 1, int(0.99 * len(gaps)))]

    @property
    def correct(self) -> bool:
        """Every non-aggressor tenant finished completely and correctly.

        The aggressor is exempt: being rejected, shed or starved out is
        the admission controller doing its job, not a failure."""
        for name, want in self.expected.items():
            if name == AGGRESSOR:
                continue
            report = self.reports.get(name)
            if report is None or not report.complete \
                    or report.solution != want:
                return False
        return True

    def fingerprint(self) -> tuple:
        """What a replay from the same seed must reproduce."""
        return (self.trace, self.grants,
                {name: report.solution
                 for name, report in self.reports.items()})

    def _grants_summary(self) -> str:
        """Per-tenant grants, folding a large bystander fleet into one
        aggregate so the 128-tenant summary stays one line."""
        grants = dict(sorted(self.grants.items()))
        if len(grants) <= 8:
            return str(grants)
        named = {k: v for k, v in grants.items() if k in (VICTIM, AGGRESSOR)}
        rest = [v for k, v in grants.items() if k not in named]
        return (f"{named} + {len(rest)} bystanders "
                f"({sum(rest)} grants)")

    def format_summary(self) -> str:
        lines = [
            f"Contention run — seed {self.seed}, {self.tenants} tenants, "
            f"aggressor {'on' if self.aggressor else 'off'}",
            f"  victims    : {'all correct' if self.correct else 'WRONG'}; "
            f"victim throughput {self.victim_throughput_per_s:.2f} tasks/s, "
            f"p99 gap {self.victim_p99_gap_ms:.1f} ms",
            f"  admission  : {self.admission_totals}",
            f"  aggressor  : {self.aggressor_admission} "
            f"{('-- ' + self.errors[AGGRESSOR]) if AGGRESSOR in self.errors else ''}",
            f"  fair share : grants {self._grants_summary()}",
            f"  preemption : {self.preemptions} preemptions, "
            f"{self.tasks_released} tasks released",
            f"  trace      : {len(self.trace)} events",
            *self._history_lines(),
        ]
        return "\n".join(lines)


def contention_chaos_experiment(
    seed: int = 42,
    workers: int = 4,
    tenants: int = 8,
    aggressor: bool = True,
    prefetch: int = 2,
    trace: bool = False,
    shards: int = 1,
    fault_plan: Optional[FaultPlan] = None,
) -> ContentionResult:
    """``tenants`` masters share one deployment; one floods 10x its quota.

    The tenant roster: one high-priority *victim* (the deployment's own
    master, ``VICTIM_TASKS`` real tasks), one low-priority *aggressor*
    flooding ``10 * AGGRESSOR_QUOTA`` tasks against a quota of
    ``AGGRESSOR_QUOTA`` in flight plus a token-bucket rate limit, and
    ``tenants - 2`` bystanders with ``BYSTANDER_TASKS`` each.  Admission
    control (quota + rate + watermark shed), weighted fair-share
    dispatch (the victim's share outweighs the rest combined) and
    priority preemption together must keep every non-aggressor tenant
    complete and correct — the isolation *ratio* against a no-aggressor
    baseline is computed by :func:`contention_isolation`.

    Fully replayable from ``seed``: tenant spawn order, DRR tenant
    order and admission decisions are all deterministic under the
    simulated clock.
    """
    if tenants < 2:
        raise ValueError(f"tenants must be >= 2 (victim + aggressor slot), "
                         f"got {tenants}")

    victim_app = TenantSquares(base=0, n=VICTIM_TASKS)
    config = _config(
        60_000.0, prefetch, trace, shards,
        # -- the multi-tenant job service under test ----------------------
        tenant=VICTIM,
        priority=2,
        # The victim's share outweighs every other tenant combined —
        # paying tenants buy isolation by weight.
        tenant_shares={VICTIM: float(max(4, tenants)), AGGRESSOR: 0.5},
        admission=True,
        # Sized so the opening burst (victim + bystander seeds) crosses
        # it — the aggressor (priority 0 < the governor's cutoff 1) gets
        # watermark-shed as well as quota-rejected.
        admission_soft_watermark=VICTIM_TASKS // max(1, shards) + 8,
        admission_quotas={AGGRESSOR: AGGRESSOR_QUOTA},
        admission_rates={AGGRESSOR: AGGRESSOR_RATE_PER_S},
        preemption_poll_ms=500.0,
    )

    def run(runtime: SimulatedRuntime, framework: AdaptiveClusterFramework):
        masters = {VICTIM: framework.master}
        expected = {VICTIM: victim_app.expected_solution()}
        for i in range(2, tenants):
            name = f"b{i:03d}"
            app = TenantSquares(base=i * TENANT_STRIDE, n=BYSTANDER_TASKS,
                                task_cost=BYSTANDER_TASK_COST)
            masters[name] = framework.attach_tenant_master(
                app, name, priority=1)
            expected[name] = app.expected_solution()
        if aggressor:
            flood = TenantSquares(base=TENANT_STRIDE,
                                  n=10 * AGGRESSOR_QUOTA,
                                  task_cost=BYSTANDER_TASK_COST)
            masters[AGGRESSOR] = framework.attach_tenant_master(
                flood, AGGRESSOR, priority=0)
            expected[AGGRESSOR] = flood.expected_solution()

        reports: dict[str, MasterReport] = {}
        errors: dict[str, str] = {}

        def run_tenant(name: str, master: Any) -> None:
            try:
                reports[name] = master.run()
            except Exception as exc:
                # Legitimate for the aggressor: retries exhausted
                # against a quota that never frees fast enough.
                errors[name] = f"{type(exc).__name__}: {exc}"

        procs = [runtime.spawn(lambda n=name, m=master: run_tenant(n, m),
                               name=f"tenant:{name}")
                 for name, master in sorted(masters.items())]
        for proc in procs:
            proc.join()
        return reports, expected, errors

    def result(framework: AdaptiveClusterFramework, outcome: tuple,
               **common: Any) -> ContentionResult:
        reports, expected, errors = outcome
        admission_totals: dict[str, int] = {}
        for name, _, _, value in framework.registry.samples():
            if name.startswith("admission."):
                key = name[len("admission."):]
                admission_totals[key] = admission_totals.get(key, 0) + value
        governor = framework.governor
        return ContentionResult(
            tenants=tenants,
            aggressor=aggressor,
            reports=reports,
            expected=expected,
            errors=errors,
            grants=framework.tenant_grants(),
            admission_totals=admission_totals,
            aggressor_admission=framework.tenant_admission(AGGRESSOR),
            preemptions=governor.stats["preemptions"],
            tasks_released=governor.stats["tasks_released"],
            victim_completions_ms=[
                t for t, name, payload in framework.metrics.events
                if name == "result-aggregated"
                and payload.get("task_id", TENANT_STRIDE) < TENANT_STRIDE],
            **common,
        )

    # Nemesis faults (worker crash / pause) compose with the tenancy
    # layer: preemption's release-and-requeue must stay exactly-once even
    # while victims of the plan lose leases.  A master can observe a
    # result one scheduling beat before the writing worker's own flush
    # reply resolves its history records; settling drains those replies,
    # or the checker sees takes of writes that "never happened".
    return _campaign(
        seed, workers, victim_app, config,
        plan=lambda streams, hostnames: fault_plan, run=run, result=result,
        settle_ms=2 * config.worker_poll_ms + 200.0)


def contention_isolation(
    seed: int = 42, *, contended: Optional[ContentionResult] = None,
    **kwargs: Any,
) -> tuple[ContentionResult, ContentionResult, float]:
    """The headline robustness number: victim throughput with the
    aggressor flooding vs. the identical campaign without it.

    ``contended`` is the flooded run if one was already made (the CLI's
    printed run); otherwise it is run here.  Returns ``(baseline,
    contended, ratio)``; the acceptance bar is ``ratio >= 0.8`` —
    admission control, weighted fair share and preemption together must
    hide the aggressor from the victim."""
    baseline = contention_chaos_experiment(seed=seed, aggressor=False,
                                           **kwargs)
    if contended is None:
        contended = contention_chaos_experiment(seed=seed, aggressor=True,
                                                **kwargs)
    base = baseline.victim_throughput_per_s
    ratio = (contended.victim_throughput_per_s / base) if base > 0 else 0.0
    return baseline, contended, ratio


def verify_contention_determinism(
        seed: int = 42, *, first: Optional[ContentionResult] = None,
        **kwargs: Any) -> bool:
    """Replay the contention campaign; True iff its trace, grants and
    solutions equal ``first``'s (by default a fresh run's)."""
    return _verify(contention_chaos_experiment, seed, kwargs, first)
