"""The worker module (paper §4.1, §4.4).

A :class:`WorkerHost` is the thin, application-agnostic process installed
on a cluster node.  It contains:

* the node's SNMP agent (so the network management module can monitor it),
* the SNMP/rule-base *client*: registers with the network management
  module, receives Start/Stop/Pause/Resume signals (Fig. 4 steps 1–3, 8),
* the remote node configuration engine (class loading + signal mailbox),
* the worker run-loop spawned on Start: take task → compute → write
  result, honoring signals only between tasks so no task is ever lost.

Lifecycle (Fig. 5): Start spawns a fresh runtime process which first
performs remote class loading (CPU spike) and then computes; Stop kills
the process after the current task and drops the classes; Pause blocks
the process but keeps classes in memory, so Resume skips the reload —
"hence bypassing the overhead associated with remote node configuration".
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Optional

from repro.errors import (
    ConnectionClosedError,
    ConnectionRefusedError_,
    FencedError,
    IllegalTransitionError,
    SpaceError,
    TransactionError,
)
from repro.core.application import Application
from repro.core.config_engine import RemoteNodeConfigurationEngine
from repro.core.entries import DeadLetterEntry, ResultEntry, TaskEntry
from repro.core.metrics import Metrics
from repro.core.signals import Signal
from repro.core.states import WorkerState, WorkerStateMachine
from repro.net.address import Address
from repro.net.network import Network, StreamSocket
from repro.node.machine import Node
from repro.runtime.base import Runtime
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.proxy import RecoveryPolicy, RemoteTransaction, SpaceProxy
from repro.util.log import get_logger

__all__ = ["WorkerHost"]

_log = get_logger("worker")


class WorkerHost:
    """One worker node's framework process."""

    def __init__(
        self,
        runtime: Runtime,
        node: Node,
        app: Application,
        space_factory: Callable[[], Any],
        code_server: Address,
        netmgmt_address: Optional[Address],
        metrics: Metrics,
        worker_poll_ms: float = 250.0,
        compute_real: bool = True,
        transactional: bool = False,
        model_time: bool = True,
        max_task_attempts: int = 3,
        recovery: Optional[RecoveryPolicy] = None,
        recovery_rng: Any = None,
        task_txn_lease_ms: Optional[float] = None,
        prefetch: int = 1,
        tracer: Any = None,
    ) -> None:
        self.runtime = runtime
        self.node = node
        self.app = app
        # Telemetry tracer (None/disabled = zero-cost): compute spans hang
        # off the task's trace carried in the entry's ``trace`` field.
        self.tracer = tracer
        # Builds this worker's space client, fresh on every Start.  Which
        # kind (proxy, shard router, history-recording wrapper) is the
        # deployment's decision — the loop only calls the SpaceProxy
        # surface.
        self.space_factory = space_factory
        self.netmgmt_address = netmgmt_address
        self.metrics = metrics
        self.worker_poll_ms = worker_poll_ms
        self.compute_real = compute_real
        self.transactional = transactional
        # Charge the cost model against the virtual CPU?  True under
        # simulation (results real, time modelled); False on the threaded
        # runtime, where the real computation takes real time already.
        self.model_time = model_time
        # Poison-task quarantine: after this many application failures a
        # task is written out as a DeadLetterEntry instead of retried.
        self.max_task_attempts = max_task_attempts
        # Self-healing: reconnect/backoff policy (None = legacy fail-stop).
        self.recovery = recovery
        self._recovery_rng = recovery_rng
        # Finite task-transaction lease: a worker that stalls mid-task has
        # its take rolled back server-side after this long (None = forever).
        self.task_txn_lease_ms = task_txn_lease_ms
        # Pipeline depth: take up to this many tasks per cycle (one
        # take_multiple under one transaction), compute them all, and
        # write the results back with a single batched write_all+commit.
        # 1 = the classic one-task-per-cycle loop.
        if prefetch < 1:
            raise ValueError(f"prefetch must be >= 1: {prefetch}")
        self.prefetch = prefetch
        # Steady-state pipeline carry: the (txn, tasks) a write-back RPC
        # prefetched for the next cycle.  Released on pause/stop.
        self._pending: Optional[tuple[Any, list[TaskEntry]]] = None
        # The batch currently being computed.  The carry above spans
        # zero simulated time (popped at loop top, repopulated by the
        # same flush that retires the batch), so the preemption governor
        # reads this to see what a busy pipeline is actually holding.
        self._active_batch: Optional[list[TaskEntry]] = None
        self.crashed = False
        self.network: Network = node.network
        self.engine = RemoteNodeConfigurationEngine(
            runtime, self.network, node, code_server
        )
        self.engine.model_time = model_time
        self.machine = WorkerStateMachine(on_transition=self._log_transition)
        self.worker_id: Optional[int] = None
        self.running = False                     # host lifetime, not worker state
        self.tasks_done = 0
        self.first_take_ms: Optional[float] = None
        self.last_result_ms: Optional[float] = None
        self._proxy: Optional[Any] = None  # SpaceProxy or ShardRouter
        self._control: Optional[StreamSocket] = None
        self._loop_generation = 0
        self._loop_active = False
        self._exit_cond = runtime.condition()
        self._trap_emitter = None

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Bring up the node agent and (if managed) the rule-base client."""
        if self.running:
            return
        self.running = True
        self.node.start_agent()
        if self.netmgmt_address is not None:
            self.runtime.spawn(
                self._rulebase_client, name=f"snmp-client:{self.node.hostname}"
            )

    def stop(self) -> None:
        self.running = False
        self.engine.stop_requested = True
        with self.engine._cond:
            self.engine._cond.notify_all()
        if self._control is not None:
            self._control.close()
        if self._trap_emitter is not None:
            self._trap_emitter.stop()
        self.node.stop_agent()

    def crash(self) -> None:
        """Abrupt node failure: no graceful task drain, no result write.

        The space-server connection drops, so (with ``transactional``
        takes) the in-flight task's transaction aborts and the task entry
        reappears for other workers — the JavaSpaces fault-tolerance
        property the paper relies on.
        """
        self.crashed = True
        self.running = False
        if self._proxy is not None:
            self._proxy.fail()
        if self._control is not None:
            self._control.close()
        if self._trap_emitter is not None:
            self._trap_emitter.stop()
        self.node.stop_agent()
        with self.engine._cond:
            self.engine.stop_requested = True
            self.engine._cond.notify_all()

    @property
    def state(self) -> WorkerState:
        return self.machine.state

    def _start_trap_emitter(self, reply: dict) -> None:
        """Trap-mode monitoring: push load-band changes instead of being
        polled (the server told us where its trap receiver listens)."""
        from repro.core.signals import ThresholdPolicy
        from repro.snmp.trap import LoadBandTrapEmitter

        thresholds = reply.get("thresholds", {})
        policy = ThresholdPolicy(
            idle_below=thresholds.get("idle_below", 25.0),
            stop_above=thresholds.get("stop_above", 50.0),
        )
        self._trap_emitter = LoadBandTrapEmitter(
            self.runtime, self.node, reply["trap_address"], policy.band,
            community=self.node.snmp_community,
        )
        self._trap_emitter.start()

    def _log_transition(self, old: WorkerState, signal: Signal, new: WorkerState) -> None:
        self.metrics.event(
            "worker-transition", worker=self.node.hostname,
            old=str(old), signal=str(signal), new=str(new),
        )
        _log.info("t=%.0fms %s: %s --%s--> %s", self.runtime.now(),
                  self.node.hostname, old, signal, new)

    def worker_time_ms(self) -> Optional[float]:
        """Paper's worker computation time: first take → last result."""
        if self.first_take_ms is None or self.last_result_ms is None:
            return None
        return self.last_result_ms - self.first_take_ms

    # -- rule-base client (Fig. 4 steps 1–3, 8) -----------------------------------------

    def _rulebase_client(self) -> None:
        from repro.errors import ConnectionRefusedError_

        try:
            try:
                self._control = self.network.connect(
                    self.node.hostname, self.netmgmt_address
                )
            except ConnectionRefusedError_:
                return  # management module already gone (teardown race)
            # Step 2: client connects and sends its address to the server.
            self._control.send({"type": "register", "host": self.node.hostname})
            reply = self._control.receive(timeout_ms=None)
            if reply is None or reply.get("type") != "registered":
                return
            self.worker_id = reply["worker_id"]
            if reply.get("mode") == "trap":
                self._start_trap_emitter(reply)
            while self.running:
                message = self._control.receive(timeout_ms=None)
                if message is None:
                    continue
                if message.get("type") == "signal":
                    signal = Signal(message["signal"])
                    received_at = self.runtime.now()
                    self.metrics.event(
                        "signal-client",
                        worker=self.node.hostname,
                        signal=str(signal),
                        latency_ms=received_at - message["sent_at"],
                    )
                    # Step 8: forward the signal to the application layer.
                    self.handle_signal(signal, received_at)
        except ConnectionClosedError:
            return

    # -- signal handling ------------------------------------------------------------------

    def handle_signal(self, signal: Signal, received_at: Optional[float] = None) -> None:
        """Apply a rule-base signal to the worker (testable without a network)."""
        if received_at is None:
            received_at = self.runtime.now()
        try:
            self.machine.apply(signal)
        except IllegalTransitionError:
            self.metrics.event(
                "illegal-signal", worker=self.node.hostname,
                signal=str(signal), state=str(self.state),
            )
            return
        self._pending_receipt = (signal, received_at)
        if signal == Signal.STOP:
            self._stop_received_at = received_at
        if signal == Signal.START:
            generation = self._loop_generation = self._loop_generation + 1
            self.runtime.spawn(
                lambda: self._worker_process(generation, received_at),
                name=f"worker-run:{self.node.hostname}",
            )
        else:
            self.engine.deliver(signal)

    def _honored(self, signal: Signal, received_at: Optional[float] = None) -> None:
        now = self.runtime.now()
        receipt = getattr(self, "_pending_receipt", None)
        if received_at is None:
            if receipt is not None and receipt[0] == signal:
                received_at = receipt[1]
            else:
                received_at = now
        self.metrics.event(
            "signal-honored",
            worker=self.node.hostname,
            signal=str(signal),
            latency_ms=now - received_at,
        )

    # -- the worker run loop -----------------------------------------------------------------

    def _worker_process(self, generation: int, start_received_at: float) -> None:
        """The fresh runtime process spawned on Start."""
        # A Stop lets the previous runtime process finish its current task
        # before control returns to the parent — wait for it to fully exit
        # so two processes never compute on one CPU.
        with self._exit_cond:
            while self._loop_active:
                self._exit_cond.wait()
            if generation != self._loop_generation:
                return  # superseded while waiting
            self._loop_active = True
        try:
            # Reset only once the previous process has fully exited — it
            # still needed its stop_requested flag to unwind.
            self.engine.reset_for_start()
            self._worker_loop(generation, start_received_at)
        finally:
            with self._exit_cond:
                self._loop_active = False
                self._exit_cond.notify_all()

    def _worker_loop(self, generation: int, start_received_at: float) -> None:
        tracer = self.tracer
        if not self.engine.classes_loaded:
            load_span = None
            if tracer is not None and tracer.enabled:
                load_span = tracer.start(
                    "class-load", trace_id=f"worker/{self.node.hostname}",
                    proc=self.node.hostname, app=self.app.app_id)
            self.engine.load_classes(self.app.app_id)
            if load_span is not None:
                load_span.end()
            self.metrics.event("class-load", worker=self.node.hostname)
        self._honored(Signal.START, start_received_at)
        proxy = self._proxy = self.space_factory()
        template = TaskEntry(app_id=self.app.app_id)
        disconnects = 0                       # consecutive failed cycles
        disconnected_at: Optional[float] = None
        try:
            while self.running and generation == self._loop_generation:
                if self._pending is not None and (
                        self.engine.paused or self.engine.stop_requested):
                    self._release_pending()
                if not self.engine.wait_for_clearance(self._honored):
                    break
                try:
                    if self.prefetch > 1:
                        self._task_batch(proxy, template)
                    else:
                        self._one_task(proxy, template)
                except TransactionError:
                    # The task txn's lease expired server-side (a compute
                    # longer than the lease, or a failover pause): the take
                    # already rolled back and the task is visible again —
                    # restart the cycle, this is not a disconnect.
                    self.metrics.event(
                        "task-txn-expired", worker=self.node.hostname,
                    )
                except (ConnectionClosedError, ConnectionRefusedError_,
                        FencedError):
                    # Space unreachable: either this node died, or the link
                    # or server did.  In the latter case, with a recovery
                    # policy, back off and retry — a healed partition or a
                    # restarted space server must not kill the worker.  A
                    # FencedError means we kept talking to a deposed
                    # primary past the proxy's own retry budget; the next
                    # cycle re-discovers the new one through the locator.
                    if self.crashed or not self.running or self.recovery is None:
                        raise
                    disconnects += 1
                    if disconnected_at is None:
                        disconnected_at = self.runtime.now()
                    if disconnects > self.recovery.max_retries:
                        self.metrics.event(
                            "worker-gave-up", worker=self.node.hostname,
                            attempts=disconnects - 1,
                        )
                        if self.machine.can_apply(Signal.STOP):
                            self.machine.apply(Signal.STOP)
                        break
                    self.metrics.event(
                        "worker-reconnect", worker=self.node.hostname,
                        attempt=disconnects,
                    )
                    self.runtime.sleep(
                        self.recovery.backoff_ms(disconnects, self._recovery_rng)
                    )
                else:
                    if disconnected_at is not None:
                        self.metrics.event(
                            "worker-recovered", worker=self.node.hostname,
                            latency_ms=self.runtime.now() - disconnected_at,
                            attempts=disconnects,
                        )
                        disconnected_at = None
                    disconnects = 0
        except (ConnectionClosedError, ConnectionRefusedError_):
            pass  # space server gone for good or this node crashed
        except Exception as exc:  # noqa: BLE001 - must not kill the host silently
            # An unexpected error (bad reply, marshalled server error…)
            # used to unwind the host with no trace and leave the state
            # machine claiming Running.  Record it and stop cleanly.
            self.metrics.event(
                "worker-error", worker=self.node.hostname, error=repr(exc),
            )
            _log.warning("t=%.0fms %s: worker loop error: %r",
                         self.runtime.now(), self.node.hostname, exc)
            if self.machine.can_apply(Signal.STOP):
                self.machine.apply(Signal.STOP)
        finally:
            if not self.crashed:
                self._release_pending()
                proxy.close()
            else:
                self._pending = None
            if self.engine.stop_requested:
                # Shutdown/cleanup: classes dropped, control returns to parent.
                self.engine.unload_classes()
                if not self.running:
                    pass  # framework teardown, not a rule-base Stop
                else:
                    self._honored(
                        Signal.STOP, getattr(self, "_stop_received_at", None)
                    )

    def _one_task(self, proxy: SpaceProxy, template: TaskEntry) -> None:
        """Take one task, compute, write the result.

        With ``transactional`` takes, the whole cycle runs under a space
        transaction: if this node dies before committing, the server
        aborts and the task entry reappears for other workers.  The
        ``finally`` guarantees the transaction never outlives the cycle —
        an application exception must not strand a FOREVER-leased txn
        holding the taken task hostage.
        """
        txn = None
        if self.transactional:
            lease = (self.task_txn_lease_ms
                     if self.task_txn_lease_ms is not None else FOREVER)
            txn = proxy.transaction(timeout_ms=lease)
        try:
            task = proxy.take(template, txn=txn, timeout_ms=self.worker_poll_ms)
            if task is None:
                return
            if self.first_take_ms is None:
                self.first_take_ms = self.runtime.now()
            compute_started = self.runtime.now()
            tracer = self.tracer
            span = None
            if tracer is not None and tracer.enabled and task.trace:
                span = tracer.start("compute", trace_id=task.trace,
                                    parent_id=task.trace,
                                    proc=self.node.hostname,
                                    task_id=task.task_id)
            # Activation makes the compute span the ambient parent, so
            # RPCs issued during compute *and* the result write-back join
            # the task's trace as children of the compute span.
            activation = (tracer.activate(span) if span is not None
                          else nullcontext())
            with activation:
                try:
                    payload = self._compute(task.payload, task.task_id)
                except Exception as exc:  # noqa: BLE001 - poison quarantine
                    if span is not None:
                        span.end(status="error", error=repr(exc))
                    self._quarantine(proxy, txn, task, exc)
                    return
                compute_ms = self.runtime.now() - compute_started
                if span is not None:
                    span.end(compute_ms=compute_ms)
                proxy.write(
                    ResultEntry(
                        app_id=self.app.app_id,
                        task_id=task.task_id,
                        payload=payload,
                        worker=self.node.hostname,
                        compute_ms=compute_ms,
                        trace=task.trace,
                        tenant=task.tenant,
                        priority=task.priority,
                    ),
                    txn=txn,
                    requeue=True,
                )
                if txn is not None:
                    txn.commit()
            self.last_result_ms = self.runtime.now()
            self.tasks_done += 1
        finally:
            if txn is not None and not txn.completed:
                self._abort_quietly(txn)

    def _task_batch(self, proxy: SpaceProxy, template: TaskEntry) -> None:
        """Pipelined cycle: take up to ``prefetch`` tasks under one
        transaction, compute them all, write everything back in one
        batched RPC (write_all + commit ride one network message).
        The txn_create rides the take_multiple's batch via an intra-batch
        reference, so a full cycle is two round trips, not four per task.

        The whole local batch is always drained — a Pause/Stop signal
        received mid-batch waits until these tasks are written back, the
        same "honored between tasks, never lose a task" rule as the
        single-task loop, applied at batch granularity.  A failing task
        does not poison its batchmates: its replacement (requeue or dead
        letter) joins the same write_all, so the swap of every entry in
        the batch commits atomically.

        In steady state the write-back batch also carries the *next*
        cycle's txn_create + take_multiple, so one round trip both
        retires a batch and prefetches the next (the carry is released —
        txn aborted, tasks reverted — before a Pause/Stop is honored).
        """
        lease = (self.task_txn_lease_ms
                 if self.task_txn_lease_ms is not None else FOREVER)
        txn = None
        tasks = None
        nxt = None
        if self._pending is not None:
            txn, tasks = self._pending
            self._pending = None
        try:
            if tasks is None:
                if self.transactional:
                    opener = proxy.batch()
                    txn = opener.txn_create(timeout_ms=lease)
                    opener.take_multiple(template, self.prefetch, txn=txn,
                                         timeout_ms=self.worker_poll_ms)
                    tasks = opener.flush()[-1]
                else:
                    tasks = proxy.take_multiple(
                        template, self.prefetch,
                        timeout_ms=self.worker_poll_ms,
                    )
            if not tasks:
                return
            self._active_batch = tasks
            if self.first_take_ms is None:
                self.first_take_ms = self.runtime.now()
            out: list[Any] = []
            results = 0
            batch_started = self.runtime.now()
            shares = self._charge_batch(tasks)
            tracer = self.tracer
            tracing = tracer is not None and tracer.enabled
            span_cursor = batch_started
            for task, compute_ms in zip(tasks, shares):
                try:
                    payload = (self.app.execute(task.payload)
                               if self.compute_real else None)
                except Exception as exc:  # noqa: BLE001 - poison-task quarantine
                    if tracing and task.trace:
                        tracer.record("compute", trace_id=task.trace,
                                      parent_id=task.trace,
                                      start_ms=span_cursor,
                                      end_ms=span_cursor + compute_ms,
                                      proc=self.node.hostname, batched=True,
                                      status="error", error=repr(exc))
                        span_cursor += compute_ms
                    out.append(self._replacement_for(task, exc))
                    continue
                if tracing and task.trace:
                    # The batch's single CPU charge already elapsed; tile
                    # the apportioned per-task shares across it so each
                    # trace still shows its own compute interval.
                    tracer.record("compute", trace_id=task.trace,
                                  parent_id=task.trace, start_ms=span_cursor,
                                  end_ms=span_cursor + compute_ms,
                                  proc=self.node.hostname, batched=True,
                                  compute_ms=compute_ms)
                    span_cursor += compute_ms
                out.append(
                    ResultEntry(
                        app_id=self.app.app_id,
                        task_id=task.task_id,
                        payload=payload,
                        worker=self.node.hostname,
                        compute_ms=compute_ms,
                        trace=task.trace,
                        tenant=task.tenant,
                        priority=task.priority,
                    )
                )
                results += 1
            batch = proxy.batch()
            batch.write_all(out, txn=txn, requeue=True)
            if txn is not None:
                batch.commit(txn)
            if self.transactional:
                nxt = batch.txn_create(timeout_ms=lease)
            batch.take_multiple(template, self.prefetch, txn=nxt,
                                timeout_ms=self.worker_poll_ms)
            values = batch.flush()
            self._pending = (nxt, values[-1])
            if results:
                self.last_result_ms = self.runtime.now()
                self.tasks_done += results
        finally:
            self._active_batch = None
            # A still-unresolved batch_ref id means the txn never came
            # into being server-side — nothing to abort.
            if (txn is not None and not txn.completed
                    and not isinstance(txn.txn_id, dict)):
                self._abort_quietly(txn)
            # A prefetch txn that survived a failed flush is also released.
            if (self._pending is None and nxt is not None
                    and not nxt.completed and not isinstance(nxt.txn_id, dict)):
                self._abort_quietly(nxt)

    def _replacement_for(self, task: TaskEntry, exc: Exception) -> Any:
        """Quarantine decision for one failed task: a requeued TaskEntry
        with a bumped attempt count, or a DeadLetterEntry once the
        attempt budget is exhausted."""
        attempts = (task.attempts or 0) + 1
        if attempts >= self.max_task_attempts:
            self.metrics.event(
                "dead-letter", worker=self.node.hostname,
                task_id=task.task_id, attempts=attempts, error=repr(exc),
            )
            return DeadLetterEntry(
                app_id=self.app.app_id, task_id=task.task_id,
                payload=task.payload, error=repr(exc),
                worker=self.node.hostname, attempts=attempts,
                trace=task.trace, tenant=task.tenant,
            )
        self.metrics.event(
            "task-requeued", worker=self.node.hostname,
            task_id=task.task_id, attempts=attempts, error=repr(exc),
        )
        return TaskEntry(
            self.app.app_id, task.task_id, task.payload, attempts=attempts,
            trace=task.trace, tenant=task.tenant, priority=task.priority,
        )

    def _quarantine(self, proxy: SpaceProxy, txn: Optional[RemoteTransaction],
                    task: TaskEntry, exc: Exception) -> None:
        """Application code failed on ``task``: requeue it with a bumped
        attempt count, or dead-letter it once the budget is exhausted.

        Committing the same transaction that took the task makes the swap
        atomic: the original entry disappears exactly when its replacement
        (or dead letter) becomes visible."""
        replacement = self._replacement_for(task, exc)
        proxy.write(replacement, txn=txn, requeue=True)
        if txn is not None:
            txn.commit()

    def _abort_quietly(self, txn: RemoteTransaction) -> None:
        """Abort a leftover transaction; the connection may already be
        gone, in which case the server aborted it when the link dropped."""
        try:
            txn.abort()
        except (ConnectionClosedError, ConnectionRefusedError_, SpaceError):
            txn.completed = True

    def _release_pending(self) -> None:
        """Give back a carried prefetch batch before pausing or stopping.

        Transactional carry: aborting the txn reverts the takes, so the
        tasks reappear for other workers.  Non-transactional carry: the
        takes are final, so the tasks are written back instead."""
        pending, self._pending = self._pending, None
        if pending is None:
            return
        txn, tasks = pending
        if txn is not None:
            if not txn.completed and not isinstance(txn.txn_id, dict):
                self._abort_quietly(txn)
        elif tasks and self._proxy is not None:
            try:
                # requeue=True: these tasks were already admitted once;
                # shedding the give-back would lose them (exactly-once).
                self._proxy.write_all(tasks, requeue=True)
            except (ConnectionClosedError, ConnectionRefusedError_,
                    SpaceError):
                pass  # space gone; nothing more this worker can do

    def _compute(self, payload: Any, task_id: int) -> Any:
        """Charge the modelled CPU cost, then run the real computation."""
        from repro.core.application import Task

        cost = self.app.task_cost_ms(Task(task_id=task_id, payload=payload))
        if self.model_time and cost > 0:
            self.node.cpu.execute(cost)
        if self.compute_real:
            return self.app.execute(payload)
        return None

    def _charge_batch(self, tasks: list[TaskEntry]) -> list[float]:
        """Charge a whole batch's modelled CPU in one blocking call.

        Processor sharing is additive under unchanged load, so one
        ``cpu.execute`` of the summed cost ends at the same virtual time
        as per-task charges — but costs one kernel handoff instead of one
        per task.  The elapsed time is apportioned back to the tasks by
        their share of the modelled work, so per-task ``compute_ms``
        matches what the single-task path would have recorded.
        """
        from repro.core.application import Task

        costs = [
            max(0.0, self.app.task_cost_ms(
                Task(task_id=t.task_id, payload=t.payload)))
            for t in tasks
        ]
        total = sum(costs)
        if not self.model_time or total <= 0:
            return [0.0] * len(tasks)
        elapsed = self.node.cpu.execute(total)
        return [elapsed * (cost / total) for cost in costs]
