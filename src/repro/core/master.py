"""The master module (paper §4.1–4.2).

Runs as an application-level process on the master node.  Three phases,
with task-planning and compute overlapping by construction (workers take
entries as soon as they appear):

* **task-planning** — decompose the application, create a task entry per
  task (paying the per-task planning CPU cost: serialization + write) and
  write it into the space;
* **compute** — performed by the workers;
* **result-aggregation** — take result entries, fold each into the
  solution (paying the per-result aggregation CPU cost).  This phase's
  duration tracks the slowest worker, because the master "needs to wait
  for the last task to complete".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.application import Application, Task
from repro.core.entries import (
    DeadLetterEntry,
    MasterCheckpointEntry,
    ResultEntry,
    TaskEntry,
)
from repro.core.metrics import Metrics
from repro.errors import (
    AdmissionError,
    ConnectionClosedError,
    ConnectionRefusedError_,
    FencedError,
    MasterCrashedError,
)
from repro.node.machine import Node
from repro.runtime.base import Runtime
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.space import JavaSpace

__all__ = ["Master", "MasterReport"]


@dataclass
class MasterReport:
    """Everything the scalability experiments measure at the master."""

    app_id: str
    task_count: int
    solution: Any
    planning_ms: float
    aggregation_ms: float
    parallel_ms: float
    max_task_overhead_ms: float          # max instantaneous planning/agg cost
    results_by_worker: dict[str, int] = field(default_factory=dict)
    #: task_id → error string for tasks the workers gave up on (poison
    #: tasks).  Partial-result policy: the run still terminates, with
    #: ``complete`` False and ``solution`` aggregated over what arrived.
    dead_letters: dict[int, str] = field(default_factory=dict)
    complete: bool = True
    duplicate_results: int = 0
    replicated_tasks: int = 0
    checkpoints_written: int = 0
    #: seq of the checkpoint this (restarted) master resumed from, or None.
    resumed_from_seq: Optional[int] = None

    @property
    def planning_plus_aggregation_ms(self) -> float:
        return self.planning_ms + self.aggregation_ms


class Master:
    """Plans tasks into the space and aggregates results out of it.

    With ``eager_scheduling`` (Charlotte's idea, Table 1), the master
    re-writes a straggling task entry when every entry has been taken but
    results stopped arriving — a replica races the straggler, and the
    first result wins (duplicates are consumed and ignored; tasks must be
    idempotent, which bag-of-tasks work is by construction).
    """

    def __init__(
        self,
        runtime: Runtime,
        node: Node,
        space: JavaSpace,
        app: Application,
        metrics: Metrics,
        eager_scheduling: bool = False,
        straggler_timeout_ms: float = 5_000.0,
        max_replicas: int = 2,
        model_time: bool = True,
        dead_letter_poll_ms: float = 1_000.0,
        give_up_after_ms: Optional[float] = None,
        checkpoint_ms: Optional[float] = None,
        checkpoint_lease_ms: float = 60_000.0,
        space_retry_ms: Optional[float] = None,
        space_max_retries: int = 20,
        seed_batch: int = 1,
        drain_batch: int = 1,
        tracer: Any = None,
        tenant: Optional[str] = None,
        priority: Optional[int] = None,
        latency_hist: Any = None,
    ) -> None:
        self.runtime = runtime
        self.node = node
        self.space = space
        self.app = app
        self.metrics = metrics
        #: Telemetry tracer (may be ``None``/disabled).  The master mints
        #: one trace per task — ``"<app_id>/<task_id>"``, stamped into
        #: every ``TaskEntry`` regardless of enablement so entry bytes
        #: (and modelled transfer times) never depend on tracing — and
        #: owns each task's root ``"task"`` span from seed to settlement.
        self.tracer = tracer
        self._task_spans: dict[int, Any] = {}
        self._job_span: Any = None
        #: End-to-end task latency histogram (seed → aggregated), fed by
        #: the drain loop when the framework wires one in.
        self.latency_hist = latency_hist
        self._task_seeded: dict[int, float] = {}
        self.eager_scheduling = eager_scheduling
        self.straggler_timeout_ms = straggler_timeout_ms
        self.max_replicas = max_replicas
        self.model_time = model_time  # charge planning/agg CPU (simulation only)
        #: How often the aggregation loop wakes to drain dead letters when
        #: no result arrives (virtual-time polls are one heap event each).
        self.dead_letter_poll_ms = dead_letter_poll_ms
        #: Quiet period after which the master abandons the run with a
        #: partial result instead of spinning on replication forever.
        #: ``None`` (default) keeps the wait-for-last-task semantics.
        self.give_up_after_ms = give_up_after_ms
        #: Checkpoint/resume: a :class:`MasterCheckpointEntry` in the space
        #: (lease ``checkpoint_lease_ms``) trails the master's progress by at
        #: most ``checkpoint_ms``; a restarted master adopts it and completes
        #: the job exactly-once.  ``None`` disables checkpointing.
        self.checkpoint_ms = checkpoint_ms
        self.checkpoint_lease_ms = checkpoint_lease_ms
        #: Failover tolerance: retry space operations that hit a dropped
        #: connection (the proxy only auto-retries idempotent ops).  A lost
        #: take may drop one in-flight result — eager scheduling recomputes
        #: it and the results-dict dedup keeps aggregation exactly-once.
        self.space_retry_ms = space_retry_ms
        self.space_max_retries = space_max_retries
        #: Pipelining: seed tasks in chunks of ``seed_batch`` via one
        #: write_all per chunk, and drain up to ``drain_batch`` results
        #: per round trip via take_multiple.  1/1 = the classic
        #: one-entry-per-round-trip loops.
        if seed_batch < 1 or drain_batch < 1:
            raise ValueError(
                f"seed_batch/drain_batch must be >= 1: {seed_batch}/{drain_batch}")
        self.seed_batch = seed_batch
        self.drain_batch = drain_batch
        #: Multi-tenant identity: stamped on every TaskEntry this master
        #: seeds (so admission control can meter it, fair-share dispatch
        #: can weight it, and shedding can rank it) and used to scope the
        #: result/dead-letter templates when several masters share one
        #: ``app_id``.  ``None`` keeps the single-tenant wire format.
        self.tenant = tenant
        self.priority = priority
        self.replicated_tasks = 0
        self.duplicate_results = 0
        self.checkpoints_written = 0
        self.resumed_from_seq: Optional[int] = None
        self._ckpt_seq = 0
        #: When the newest checkpoint was written, and what it recorded.
        self._ckpt_at, self._ckpt_state = 0.0, None
        self._cancelled = False
        self._crashed = False

    def cancel(self) -> None:
        """Abandon the run: the aggregation loop exits at its next wake
        (requires eager scheduling or any finite take timeout to notice)."""
        self._cancelled = True

    def crash(self) -> None:
        """Kill the master process (fault injection): every subsequent
        space touch raises :class:`MasterCrashedError`, unwinding
        :meth:`run` without aggregating anything further — including a
        result already in flight when the crash landed."""
        self._crashed = True

    def _check_crashed(self) -> None:
        if self._crashed:
            raise MasterCrashedError(f"master for {self.app.app_id} killed")

    # -- guarded space operations ------------------------------------------------

    def _guard(self, op):
        """Run one space operation, retrying dropped connections.

        During a failover window the proxy's reconnect lands on the
        promoted standby (via its locator); non-idempotent ops surface the
        drop here and are re-issued after a pause.  Without
        ``space_retry_ms`` the original fail-fast behaviour stands.
        """
        attempt = 0
        while True:
            self._check_crashed()
            try:
                return op()
            except (ConnectionClosedError, ConnectionRefusedError_,
                    FencedError):
                if self.space_retry_ms is None:
                    raise
                attempt += 1
                if attempt > self.space_max_retries:
                    raise
                self.metrics.event("master-space-retry", app=self.app.app_id,
                                   attempt=attempt)
                self.runtime.sleep(self.space_retry_ms)
            except AdmissionError as exc:
                # Over-quota or shed: the op had no side effects, so
                # re-issuing it verbatim is safe.  The proxy already
                # backed off through its own retry budget; this outer
                # loop is the master's last-resort patience, honouring
                # the server's retry-after hint.
                if self.space_retry_ms is None:
                    raise
                attempt += 1
                if attempt > self.space_max_retries:
                    raise
                self.metrics.event("master-admission-retry",
                                   app=self.app.app_id, attempt=attempt,
                                   tenant=exc.tenant, reason=exc.reason)
                pause_ms = max(exc.retry_after_ms, self.space_retry_ms)
                if self.tracer is not None and self.tracer.enabled:
                    # Attribution: the doctor charges this wait to the
                    # "admission" phase.  The sleep itself is identical
                    # traced or not (span recording reads the clock, it
                    # never advances it).
                    with self.tracer.start(
                            "admission.backoff", f"job/{self.app.app_id}",
                            parent_id=(self._job_span.span_id
                                       if self._job_span is not None
                                       else None),
                            proc="master", tenant=exc.tenant,
                            reason=exc.reason):
                        self.runtime.sleep(pause_ms)
                else:
                    self.runtime.sleep(pause_ms)

    def _write(self, entry, lease_ms: float = FOREVER):
        return self._guard(lambda: self.space.write(entry, lease_ms=lease_ms))

    def _write_all(self, entries):
        # Bulk seeds retry per-remainder: a sharded scatter's partial
        # admission rejection names the entries that landed, and
        # re-issuing those would seed duplicate tasks.
        remaining = list(entries)

        def op():
            if not remaining:
                return 0
            try:
                return self.space.write_all(remaining)
            except AdmissionError as exc:
                admitted = {id(e) for e in
                            getattr(exc, "admitted_entries", ())}
                if admitted:
                    remaining[:] = [e for e in remaining
                                    if id(e) not in admitted]
                raise

        return self._guard(op)

    def _take(self, template, timeout_ms):
        return self._guard(lambda: self.space.take(template, timeout_ms=timeout_ms))

    def _take_if_exists(self, template):
        return self._guard(lambda: self.space.take_if_exists(template))

    def _read_if_exists(self, template):
        return self._guard(lambda: self.space.read_if_exists(template))

    def _contents(self, template):
        return self._guard(lambda: self.space.contents(template))

    # -- tracing -----------------------------------------------------------------

    def _trace_id(self, task_id: int) -> str:
        return f"{self.app.app_id}/{task_id}"

    def _task_entry(self, task_id: int, payload: Any) -> TaskEntry:
        """A seedable TaskEntry carrying this master's tenant identity."""
        return TaskEntry(self.app.app_id, task_id, payload,
                         trace=self._trace_id(task_id),
                         tenant=self.tenant, priority=self.priority)

    def _open_task_span(self, task_id: int) -> None:
        """Open the task's root span (span_id == trace_id, so workers can
        parent compute spans without any span-ID propagation)."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled or task_id in self._task_spans:
            return
        tid = self._trace_id(task_id)
        parent = self._job_span.span_id if self._job_span is not None else None
        self._task_spans[task_id] = tracer.start(
            "task", trace_id=tid, span_id=tid, parent_id=parent,
            proc="master", task_id=task_id)

    def _settle_task_span(self, task_id: int, **attrs: Any) -> None:
        span = self._task_spans.pop(task_id, None)
        if span is not None:
            span.end(**attrs)

    def run(self) -> MasterReport:
        """Execute the full master lifecycle; blocks until aggregation ends."""
        app = self.app
        started = self.runtime.now()
        self._task_seeded = {}
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        plan_span = None
        if tracing:
            self._task_spans = {}
            self._job_span = tracer.start(
                "job", trace_id=f"job/{app.app_id}",
                span_id=f"job/{app.app_id}", proc="master", app=app.app_id)
            plan_span = tracer.start(
                "planning", trace_id=f"job/{app.app_id}",
                parent_id=self._job_span.span_id, proc="master")
        max_overhead = 0.0
        results: dict[int, Any] = {}
        by_worker: dict[str, int] = {}
        dead: dict[int, str] = {}

        # ---- task-planning phase -------------------------------------------------
        # app.plan() is deterministic, so a restarted master re-derives the
        # same task list and only needs the checkpoint to know which tasks
        # are already settled.
        tasks: list[Task] = app.plan()
        checkpoint = (self._adopt_checkpoint()
                      if self.checkpoint_ms is not None else None)
        if checkpoint is not None:
            self._resume_from(checkpoint, tasks, results, dead, by_worker)
        elif self.seed_batch > 1:
            # Chunked seeding: one planning CPU charge and one write_all
            # round trip per chunk (summed charges end at the same virtual
            # time as per-task ones, minus the per-task kernel handoffs).
            for start in range(0, len(tasks), self.seed_batch):
                group = tasks[start:start + self.seed_batch]
                t0 = self.runtime.now()
                cost = sum(max(0.0, app.planning_cost_ms(t)) for t in group)
                if self.model_time and cost > 0:
                    self.node.cpu.execute(cost)
                for t in group:
                    self._open_task_span(t.task_id)
                self._write_all([self._task_entry(t.task_id, t.payload)
                                 for t in group])
                seeded_at = self.runtime.now()
                for t in group:
                    self._task_seeded[t.task_id] = seeded_at
                max_overhead = max(max_overhead, self.runtime.now() - t0)
        else:
            for task in tasks:
                t0 = self.runtime.now()
                cost = app.planning_cost_ms(task)
                if self.model_time and cost > 0:
                    self.node.cpu.execute(cost)
                self._open_task_span(task.task_id)
                self._write(self._task_entry(task.task_id, task.payload))
                self._task_seeded[task.task_id] = self.runtime.now()
                max_overhead = max(max_overhead, self.runtime.now() - t0)
        planning_ms = self.runtime.now() - started
        self.metrics.scalar(f"master/{app.app_id}/planning_ms", planning_ms)
        self.metrics.event("planning-done", app=app.app_id, tasks=len(tasks))
        if plan_span is not None:
            plan_span.end(tasks=len(tasks))

        # ---- result-aggregation phase ---------------------------------------------
        aggregation_started = self.runtime.now()
        agg_span = None
        if tracing:
            agg_span = tracer.start(
                "aggregation", trace_id=f"job/{app.app_id}",
                parent_id=self._job_span.span_id, proc="master")
        # With several masters sharing one app_id, the tenant field keeps
        # each master draining only its own results (None = wildcard, so
        # single-tenant behaviour is unchanged).
        template = ResultEntry(app_id=app.app_id, tenant=self.tenant)
        task_by_id = {task.task_id: task for task in tasks}
        replicas: dict[int, int] = {}
        last_progress = self.runtime.now()
        last_dead_scan = self.runtime.now()
        # "Seeded, nothing back yet" is the first progress to record.
        self._ckpt_at, self._ckpt_state = self.runtime.now(), None
        while len(results) + len(dead) < len(tasks):
            if self._cancelled:
                break
            self._check_crashed()
            wait_ms = (self.straggler_timeout_ms if self.eager_scheduling
                       else self.dead_letter_poll_ms)
            # A checkpoint coming due shortens the drain wait below (to the
            # instant it is due, not a full period from this drain's start);
            # it must not also turn that wake-up into a dead-letter scan
            # (on a sharded space: one round trip per shard, each time).
            dead_scan_ms = min(wait_ms, self.dead_letter_poll_ms)
            ckpt = None
            if self.checkpoint_ms is not None:
                now = self.runtime.now()
                if now >= self._checkpoint_due(results, dead)[0]:
                    ckpt = self._build_checkpoint(tasks, results, dead,
                                                  by_worker)
                wait_ms = min(
                    wait_ms, self._checkpoint_due(results, dead)[0] - now)
            entries = self._drain_results(template, wait_ms, ckpt)
            # A kill that lands while a take is in flight must not
            # aggregate the entries it returned: the results are dropped
            # here (eager replication recomputes them for the resumed
            # master).
            self._check_crashed()
            if not entries:
                # No result: look for quarantined tasks (their result will
                # never come), then consider straggler replication / giving
                # up with a partial solution.
                # (Without checkpoints an empty drain always waited the
                # full period: scan, exactly as before there was a gate.)
                now = self.runtime.now()
                if self.checkpoint_ms is None or \
                        now - last_dead_scan >= dead_scan_ms:
                    last_dead_scan = now
                    if self._drain_dead_letters(dead, results):
                        last_progress = self.runtime.now()
                        continue
                now = self.runtime.now()
                if self.eager_scheduling and \
                        now - last_progress >= self.straggler_timeout_ms:
                    self._replicate_stragglers(task_by_id, results, replicas, dead)
                if self.give_up_after_ms is not None and \
                        now - last_progress >= self.give_up_after_ms:
                    missing = len(tasks) - len(results) - len(dead)
                    self.metrics.event("master-gave-up", app=app.app_id,
                                       missing=missing)
                    break
                continue
            last_progress = self.runtime.now()
            # One aggregation CPU charge for the whole drained batch:
            # summed over the first occurrence of each fresh task, exactly
            # what per-entry charging would have cost, in one sleep.  The
            # elapsed time is apportioned back per task so the overhead
            # metric still sees each entry's own aggregation cost.
            agg_cost: dict[int, float] = {}
            for entry in entries:
                if entry.task_id in results or entry.task_id in agg_cost:
                    continue
                agg_cost[entry.task_id] = max(0.0, app.aggregation_cost_ms(
                    entry.task_id, entry.payload))
            batch_cost = sum(agg_cost.values())
            charged = 0.0
            agg_cursor = self.runtime.now()
            if self.model_time and batch_cost > 0:
                charged = self.node.cpu.execute(batch_cost)
            for entry in entries:
                if entry.task_id in results:
                    self.duplicate_results += 1
                    continue  # a straggler and its replica both finished
                t0 = self.runtime.now()
                results[entry.task_id] = entry.payload
                if self.latency_hist is not None:
                    # Seed → aggregated, on the virtual clock.  Tasks
                    # adopted from a checkpoint have no seed timestamp;
                    # fall back to this master's aggregation start.
                    self.latency_hist.observe(
                        t0 - self._task_seeded.get(entry.task_id,
                                                   aggregation_started))
                # A replica's late success trumps an earlier dead letter.
                dead.pop(entry.task_id, None)
                if entry.worker:
                    by_worker[entry.worker] = by_worker.get(entry.worker, 0) + 1
                if self.checkpoint_ms is not None or self.tenant is not None:
                    # Checkpointed masters need these for exactly-once
                    # audits across restarts; tenant-labelled masters for
                    # the contention campaign's stall percentiles.
                    self.metrics.event("result-aggregated", app=app.app_id,
                                       task_id=entry.task_id, worker=entry.worker)
                share = (charged * agg_cost.get(entry.task_id, 0.0) / batch_cost
                         if batch_cost > 0 else 0.0)
                if tracing:
                    # The batch CPU charge already elapsed in one sleep;
                    # tile the apportioned shares across that interval so
                    # each task's tree shows its own aggregation cost.
                    trace_id = entry.trace or self._trace_id(entry.task_id)
                    tracer.record("aggregate", trace_id=trace_id,
                                  parent_id=trace_id, start_ms=agg_cursor,
                                  end_ms=agg_cursor + share, proc="master",
                                  worker=entry.worker)
                    agg_cursor += share
                    self._settle_task_span(entry.task_id, status="aggregated",
                                           worker=entry.worker)
                max_overhead = max(max_overhead,
                                   share + self.runtime.now() - t0)
        self._drain_dead_letters(dead, results)
        if self.eager_scheduling:
            self._drain_leftovers(template, task_by_id)
        if self.checkpoint_ms is not None and not self._cancelled:
            self._clear_checkpoints()
        complete = not self._cancelled and len(results) == len(tasks)
        if self._cancelled:
            solution = None
        elif complete:
            solution = app.aggregate(results)
        else:
            # Partial-result policy: hand the application what arrived;
            # apps that insist on completeness make the solution None.
            try:
                solution = app.aggregate(results)
            except Exception:  # noqa: BLE001 - partial set rejected by the app
                solution = None
        now = self.runtime.now()
        aggregation_ms = now - aggregation_started
        parallel_ms = now - started

        if self.replicated_tasks:
            self.metrics.scalar(f"master/{app.app_id}/replicated_tasks",
                                self.replicated_tasks)
        if dead:
            self.metrics.scalar(f"master/{app.app_id}/dead_letters", len(dead))
        self.metrics.scalar(f"master/{app.app_id}/aggregation_ms", aggregation_ms)
        self.metrics.scalar(f"master/{app.app_id}/parallel_ms", parallel_ms)
        if tracing:
            for task_id in list(self._task_spans):
                self._settle_task_span(task_id, status="unsettled")
            agg_span.end(results=len(results), dead=len(dead))
            self._job_span.end(complete=complete,
                               parallel_ms=parallel_ms)
        return MasterReport(
            app_id=app.app_id,
            task_count=len(tasks),
            solution=solution,
            planning_ms=planning_ms,
            aggregation_ms=aggregation_ms,
            parallel_ms=parallel_ms,
            max_task_overhead_ms=max_overhead,
            results_by_worker=by_worker,
            dead_letters=dead,
            complete=complete,
            duplicate_results=self.duplicate_results,
            replicated_tasks=self.replicated_tasks,
            checkpoints_written=self.checkpoints_written,
            resumed_from_seq=self.resumed_from_seq,
        )

    # -- checkpoint/resume internals -------------------------------------------------

    def _adopt_checkpoint(self) -> Optional[MasterCheckpointEntry]:
        """Find the newest surviving checkpoint for this application."""
        checkpoints = self._contents(MasterCheckpointEntry(app_id=self.app.app_id))
        if not checkpoints:
            return None
        return max(checkpoints, key=lambda c: c.seq or 0)

    def _resume_from(
        self,
        checkpoint: MasterCheckpointEntry,
        tasks: list[Task],
        results: dict[int, Any],
        dead: dict[int, str],
        by_worker: dict[str, int],
    ) -> None:
        """Adopt checkpointed progress and re-seed only the tasks that
        left no trace anywhere — checkpointed, queued, computed or dead.

        A task a worker holds under an open transaction is invisible to
        the probes and gets re-seeded; the resulting duplicate result is
        consumed by the results-dict dedup, so aggregation stays
        exactly-once either way.
        """
        results.update(checkpoint.results or {})
        dead.update(checkpoint.dead or {})
        by_worker.update(checkpoint.by_worker or {})
        self.duplicate_results = checkpoint.duplicates or 0
        self.replicated_tasks = checkpoint.replicas or 0
        self._ckpt_seq = checkpoint.seq or 0
        self.resumed_from_seq = checkpoint.seq
        reseed: list[TaskEntry] = []
        reseeded = 0
        for task in tasks:
            tid = task.task_id
            if tid in results or tid in dead:
                continue
            self._open_task_span(tid)
            if self._read_if_exists(
                    TaskEntry(app_id=self.app.app_id, task_id=tid)) is not None:
                continue
            if self._read_if_exists(
                    ResultEntry(app_id=self.app.app_id, task_id=tid)) is not None:
                continue
            if self._read_if_exists(
                    DeadLetterEntry(app_id=self.app.app_id, task_id=tid)) is not None:
                continue
            reseed.append(self._task_entry(tid, task.payload))
            reseeded += 1
            if self.seed_batch > 1 and len(reseed) >= self.seed_batch:
                self._write_all(reseed)
                reseed = []
        if reseed:
            if self.seed_batch > 1:
                self._write_all(reseed)
            else:
                for entry in reseed:
                    self._write(entry)
        self.metrics.event(
            "master-resumed", app=self.app.app_id, seq=checkpoint.seq,
            results=len(results), dead=len(dead), reseeded=reseeded,
        )

    @property
    def checkpoint_age_ms(self) -> float:
        return self.runtime.now() - self._ckpt_at

    def _checkpoint_due(self, results: dict[int, Any],
                        dead: dict[int, str]) -> tuple[float, str, tuple]:
        """When the next checkpoint is due, why, and what it would record.

        ``checkpoint_ms`` bounds staleness, it is not a period: progress
        the newest checkpoint lacks is due once that one is
        ``checkpoint_ms`` old; with nothing new, only a renewal at half
        the lease, so a stalled job never loses its one checkpoint.
        Counts fingerprint the state: ``results`` only grows (``by_worker``
        with it), ``dead`` grows or loses a task to ``results``.
        """
        state = (len(results), len(dead), self.duplicate_results,
                 self.replicated_tasks)
        renew_at = self._ckpt_at + self.checkpoint_lease_ms / 2
        if state == self._ckpt_state:
            return renew_at, "lease", state
        return (min(self._ckpt_at + self.checkpoint_ms, renew_at),
                "progress", state)

    def _build_checkpoint(
        self,
        tasks: list[Task],
        results: dict[int, Any],
        dead: dict[int, str],
        by_worker: dict[str, int],
    ) -> MasterCheckpointEntry:
        """Assemble checkpoint ``seq+1``; :meth:`_drain_results` writes it.

        The write rides the next drain round trip, and the predecessor's
        retirement rides the same message — write-new-before-take-old
        order is preserved inside the batch, so a crash anywhere still
        leaves at least one checkpoint in the space; resume adopts the
        highest ``seq`` and the end-of-run sweep clears any leftovers.
        """
        self._ckpt_seq += 1
        outstanding = [t.task_id for t in tasks
                       if t.task_id not in results and t.task_id not in dead]
        entry = MasterCheckpointEntry(
            app_id=self.app.app_id, seq=self._ckpt_seq,
            results=dict(results), dead=dict(dead),
            by_worker=dict(by_worker), outstanding=outstanding,
            duplicates=self.duplicate_results,
            replicas=self.replicated_tasks,
        )
        _, reason, state = self._checkpoint_due(results, dead)
        self.checkpoints_written += 1
        self.metrics.event("master-checkpoint", app=self.app.app_id,
                           seq=self._ckpt_seq, results=len(results),
                           outstanding=len(outstanding),
                           age_ms=self.checkpoint_age_ms, reason=reason)
        self._ckpt_at, self._ckpt_state = self.runtime.now(), state
        return entry

    def _write_checkpoint(
        self,
        tasks: list[Task],
        results: dict[int, Any],
        dead: dict[int, str],
        by_worker: dict[str, int],
    ) -> None:
        """Write checkpoint ``seq+1`` now, then retire its predecessor
        (standalone form; the run loop piggybacks the same operations on
        a drain round trip via :meth:`_drain_results`)."""
        ckpt = self._build_checkpoint(tasks, results, dead, by_worker)
        self._write(ckpt, lease_ms=self.checkpoint_lease_ms)
        while self._take_if_exists(
            MasterCheckpointEntry(app_id=self.app.app_id, seq=(ckpt.seq or 0) - 1)
        ) is not None:
            pass

    def _drain_results(self, template: ResultEntry, wait_ms: float,
                       ckpt: Optional[MasterCheckpointEntry]) -> list[ResultEntry]:
        """One drain round trip: up to ``drain_batch`` results, with a due
        checkpoint (write new + retire old) riding the same message.

        Over a proxy this is a single pipelined ``batch`` RPC; on a local
        space the operations run directly (there is no round trip to
        save).  The unpipelined configuration (``drain_batch == 1``, no
        checkpoint due) keeps the classic single blocking take.
        """
        old = (MasterCheckpointEntry(app_id=self.app.app_id,
                                     seq=(ckpt.seq or 0) - 1)
               if ckpt is not None and (ckpt.seq or 0) > 1 else None)

        def attempt() -> list[ResultEntry]:
            batcher = (getattr(self.space, "batch", None)
                       if ckpt is not None or self.drain_batch > 1 else None)
            space = self.space if batcher is None else batcher()
            if ckpt is not None:
                space.write(ckpt, lease_ms=self.checkpoint_lease_ms)
                if old is not None:
                    space.take(old, timeout_ms=0.0)
            if self.drain_batch > 1:
                got = space.take_multiple(template, self.drain_batch,
                                          timeout_ms=wait_ms)
            else:
                got = space.take(template, timeout_ms=wait_ms)
            if batcher is not None:
                got = space.flush()[-1]
            if self.drain_batch > 1:
                return got or []
            return [got] if got is not None else []

        return self._guard(attempt)

    def _clear_checkpoints(self) -> None:
        """The run is settled: retire every checkpoint for this app."""
        try:
            while self._take_if_exists(
                MasterCheckpointEntry(app_id=self.app.app_id)
            ) is not None:
                pass
        except (ConnectionClosedError, ConnectionRefusedError_):
            pass  # space going down with the run; leases age the rest out

    # -- eager scheduling internals ------------------------------------------------

    def _drain_dead_letters(self, dead: dict[int, str],
                            results: dict[int, Any]) -> bool:
        """Consume every quarantined task currently in the space.

        A dead letter for a task that some replica already completed is
        dropped — the result won the race.  Returns True if anything new
        was recorded (progress, for the give-up clock)."""
        template = DeadLetterEntry(app_id=self.app.app_id, tenant=self.tenant)
        progressed = False
        while True:
            entry = self._take_if_exists(template)
            if entry is None:
                return progressed
            if entry.task_id in results or entry.task_id in dead:
                continue
            dead[entry.task_id] = entry.error or "unknown error"
            progressed = True
            self._settle_task_span(entry.task_id, status="dead-letter",
                                   error=entry.error, worker=entry.worker)
            self.metrics.event(
                "dead-letter-received", app=self.app.app_id,
                task_id=entry.task_id, worker=entry.worker,
                attempts=entry.attempts,
            )

    def _replicate_stragglers(
        self,
        task_by_id: dict[int, Task],
        results: dict[int, Any],
        replicas: dict[int, int],
        dead: dict[int, str],
    ) -> None:
        """Re-write task entries whose result is overdue.

        Only tasks with no visible entry left in the space (i.e. taken by
        some worker that has gone quiet) are replicated, at most
        ``max_replicas`` times each.  Dead-lettered tasks are not raced:
        they failed deterministically, another attempt would too.
        """
        for task_id, task in task_by_id.items():
            if task_id in results or task_id in dead:
                continue
            if replicas.get(task_id, 0) >= self.max_replicas:
                continue
            probe = TaskEntry(app_id=self.app.app_id, task_id=task_id)
            if self._read_if_exists(probe) is not None:
                continue  # still queued: nobody is sitting on it
            replicas[task_id] = replicas.get(task_id, 0) + 1
            self.replicated_tasks += 1
            self.metrics.event("task-replicated", app=self.app.app_id,
                               task_id=task_id)
            self._write(self._task_entry(task_id, task.payload))

    def _drain_leftovers(self, template: ResultEntry,
                         task_by_id: dict[int, Task]) -> None:
        """Consume duplicate results and retract un-taken replicas."""
        while True:
            extra = self._take_if_exists(template)
            if extra is None:
                break
            self.duplicate_results += 1
        for task_id in task_by_id:
            while self._take_if_exists(
                TaskEntry(app_id=self.app.app_id, task_id=task_id)
            ) is not None:
                pass
