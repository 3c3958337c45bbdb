"""The worker module (paper §4.1, §4.4).

A :class:`WorkerHost` is the thin, application-agnostic process installed
on a cluster node.  It contains:

* the node's SNMP agent (so the network management module can monitor it),
* the SNMP/rule-base *client*: registers with the network management
  module, receives Start/Stop/Pause/Resume signals (Fig. 4 steps 1–3, 8),
* the remote node configuration engine (class loading + the worker's
  lifecycle),
* the worker run loop: take task → compute → write result, honoring
  signals only between tasks so no task is ever lost.

The loop runs one task cycle (:meth:`WorkerHost._cycle`) whose depth is
``prefetch``.  At depth 1 each step is one RPC — ``txn_create``,
``take``, ``write``, ``txn_commit`` per task, the paper's loop.  At
depth > 1 a cycle takes up to ``prefetch`` tasks with one
``[txn_create, take_multiple]`` batch, charges their CPU in one block,
and retires them with one ``[write_all, txn_commit, txn_create,
take_multiple]`` batch whose take is the next cycle's carry.  The
preemption governor reads both through :meth:`WorkerHost.carry`; a
depth-1 worker holds none.

Lifecycle (Fig. 5), held by the configuration engine: the first Start
spawns the host's one run process.  Each Start it serves performs remote
class loading (CPU spike) and then computes; Stop ends the loop after the
current task and drops the classes, and the process waits on the engine
for the next Start; Pause parks the loop but keeps classes in memory, so
Resume skips the reload — "hence bypassing the overhead associated with
remote node configuration".
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
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
from repro.core.inference import InferenceEngine
from repro.core.metrics import Metrics
from repro.core.signals import Signal
from repro.core.states import WorkerState
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
        # Pipeline depth: tasks taken, computed and written back per
        # cycle (see _cycle).  1 = the paper's one-task loop.
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
        self.worker_id: Optional[int] = None
        self.running = False                     # host lifetime, not worker state
        self.tasks_done = 0
        self.first_take_ms: Optional[float] = None
        self.last_result_ms: Optional[float] = None
        self.client: Optional[Any] = None  # this Start's space client
        self._control: Optional[StreamSocket] = None
        self._registered = False
        # How the worker's own Stop reaches its rule-base record: a
        # ``{"type": "stopped"}`` message on the control socket once
        # registered, or the in-process link's ``observe_stop``.
        self._report_stop: Optional[Callable[[], None]] = None
        self._trap_emitter = None
        # When each signal last arrived: "honoured" latencies run from it.
        self._received_at: dict[Signal, float] = {}

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Bring up the node agent and (if managed) the rule-base client."""
        if self.running:
            return
        self.running = True
        self.node.start_agent()
        if self.netmgmt_address is not None:
            # Dials in the event a client process used to start in.
            self.runtime.call_later(0.0, self._dial_rulebase)

    def stop(self) -> None:
        self.running = False
        self.engine.halt()
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
        if self.client is not None:
            self.client.fail()
        if self._control is not None:
            self._control.close()
        if self._trap_emitter is not None:
            self._trap_emitter.stop()
        self.node.stop_agent()
        self.engine.halt()

    @property
    def state(self) -> WorkerState:
        return self.engine.machine.state

    def carry(self) -> list[TaskEntry]:
        """The tasks this host's pipeline holds: the batch being computed
        and the carry a flush prefetched for the next cycle."""
        tasks = list(self._active_batch or ())
        if self._pending is not None:
            tasks.extend(self._pending[1])
        return tasks

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

    def worker_time_ms(self) -> Optional[float]:
        """Paper's worker computation time: first take → last result."""
        if self.first_take_ms is None or self.last_result_ms is None:
            return None
        return self.last_result_ms - self.first_take_ms

    # -- rule-base client (Fig. 4 steps 1–3, 8) -----------------------------------------

    def link_rulebase(self, inference: InferenceEngine) -> None:
        """The in-process link, for a worker no monitor registers: the
        rule-base's orders call :meth:`handle_signal` the instant they
        are decided, and the worker's own Stop reaches its record."""
        record = inference.register(self.node.hostname, self.handle_signal)
        self.worker_id = record.worker_id
        self._report_stop = partial(inference.observe_stop, record.worker_id)

    def _dial_rulebase(self) -> None:
        try:
            control = self.network.connect(self.node.hostname,
                                           self.netmgmt_address)
        except ConnectionRefusedError_:
            return  # management module already gone (teardown race)
        self._control = control
        self._registered = False
        # Step 2: client connects and sends its address to the server.
        control.send({"type": "register", "host": self.node.hostname})
        control.serve(partial(self._on_control, control))
        self._on_control(control)   # arms the socket: nothing is queued yet

    def _on_control(self, control: StreamSocket) -> None:
        """The registration reply, then signals (step 8), each in the
        event its delivery wakes; :meth:`handle_signal` never blocks."""
        try:
            while not self._registered or self.running:
                message = control.poll()
                if message is None:
                    return
                if not self._registered:
                    if message.get("type") != "registered":
                        return
                    self._registered = True
                    self.worker_id = message["worker_id"]
                    self._report_stop = partial(control.send,
                                                {"type": "stopped"})
                    if message.get("mode") == "trap":
                        self._start_trap_emitter(message)
                elif message.get("type") == "signal":
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
        """Apply a signal to the worker: the rule-base's orders (off the
        control socket, or over its in-process link when no monitor links
        this worker) and the worker's own Stop.

        ``received_at`` is when an order arrived on the control channel;
        "honoured" latencies run from it (from now without one).
        """
        try:
            old, new, generation = self.engine.deliver(signal)
        except IllegalTransitionError:
            self.metrics.event(
                "illegal-signal", worker=self.node.hostname,
                signal=str(signal), state=str(self.state),
            )
            return
        self.metrics.event(
            "worker-transition", worker=self.node.hostname,
            old=str(old), signal=str(signal), new=str(new),
        )
        _log.info("t=%.0fms %s: %s --%s--> %s", self.runtime.now(),
                  self.node.hostname, old, signal, new)
        self._received_at[signal] = (self.runtime.now() if received_at is None
                                     else received_at)
        if signal is Signal.START and generation == 1:
            self.runtime.spawn(self._run,
                               name=f"worker-run:{self.node.hostname}")

    def _stop_self(self) -> None:
        """The worker's own Stop (it gave up, or its loop failed): the one
        transition the rule-base does not order.  It reaches the worker's
        rule-base record as a fact."""
        if not self.engine.machine.can_apply(Signal.STOP):
            return
        self.handle_signal(Signal.STOP)
        if self._report_stop is not None:
            try:
                self._report_stop()
            except ConnectionClosedError:
                pass   # the rule-base is gone: nobody is left to tell

    def _honored(self, signal: Signal) -> None:
        now = self.runtime.now()
        self.metrics.event(
            "signal-honored", worker=self.node.hostname, signal=str(signal),
            latency_ms=now - self._received_at.get(signal, now))

    # -- the worker run loop -----------------------------------------------------------------

    def _run(self) -> None:
        """The host's one run process, spawned by the first Start: serves
        each Start in turn and waits on the engine while Stopped, until
        the host stops or crashes."""
        generation = self.engine.await_start(0)
        while generation is not None:
            self._worker_loop(generation)
            generation = self.engine.await_start(generation)

    def _worker_loop(self, generation: int) -> None:
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
        self._honored(Signal.START)
        proxy = self.client = self.space_factory()
        template = TaskEntry(app_id=self.app.app_id)
        disconnects = 0                       # consecutive failed cycles
        disconnected_at: Optional[float] = None
        try:
            while self.engine.wait_for_clearance(generation, self._honored,
                                                 self._release_pending):
                try:
                    self._cycle(proxy, template)
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
                        self._stop_self()
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
            self._stop_self()
        finally:
            if not self.crashed:
                self._release_pending()
                proxy.close()
            else:
                self._pending = None
            if self.engine.ended(generation):
                # A Stop, or the host's shutdown or crash: classes dropped.
                self.engine.unload_classes()
                if self.running:             # not the framework's teardown
                    self._honored(Signal.STOP)

    def _cycle(self, proxy: SpaceProxy, template: TaskEntry) -> None:
        """One turn of the worker loop: take, compute, write back.

        ``prefetch`` is the pipeline depth; every depth runs these three
        steps, only the RPCs that carry them differ:

        * take — depth 1: ``txn_create`` then a lone ``take``.  Deeper:
          the carry, or one ``[txn_create, take_multiple]`` batch (the
          txn rides the take via an intra-batch reference);
        * compute — one CPU charge for the whole batch, then each task
          is executed; a failing task's replacement (requeue or dead
          letter) is written back in its result's place, so the swap
          commits atomically and never poisons its batchmates;
        * write back — depth 1: ``write`` then ``txn_commit``.  Deeper:
          one ``[write_all, txn_commit, txn_create, take_multiple]``
          batch that retires this batch and prefetches the next (the
          carry, released before a Pause/Stop is honoured).

        With ``transactional`` takes the whole cycle runs under a space
        transaction: if this node dies before committing, the server
        aborts and the tasks reappear for other workers.  The ``finally``
        guarantees the transaction never outlives the cycle — an
        application exception must not strand a FOREVER-leased txn
        holding the taken tasks hostage.  Signals are honoured only
        between cycles, so a taken batch is always drained.
        """
        piped = self.prefetch > 1
        lease = (self.task_txn_lease_ms
                 if self.task_txn_lease_ms is not None else FOREVER)
        txn = tasks = nxt = None
        if self._pending is not None:
            (txn, tasks), self._pending = self._pending, None
        try:
            if tasks is None:
                if not piped:
                    if self.transactional:
                        txn = proxy.transaction(timeout_ms=lease)
                    task = proxy.take(template, txn=txn,
                                      timeout_ms=self.worker_poll_ms)
                    tasks = [task] if task is not None else []
                elif self.transactional:
                    opener = proxy.batch()
                    txn = opener.txn_create(timeout_ms=lease)
                    opener.take_multiple(template, self.prefetch, txn=txn,
                                         timeout_ms=self.worker_poll_ms)
                    tasks = opener.flush()[-1]
                else:
                    tasks = proxy.take_multiple(
                        template, self.prefetch,
                        timeout_ms=self.worker_poll_ms)
            if not tasks:
                return
            if piped:
                # What the preemption governor reads: a depth-1 worker
                # holds no carry worth preempting.
                self._active_batch = tasks
            if self.first_take_ms is None:
                self.first_take_ms = self.runtime.now()
            started = self.runtime.now()
            tracer = self.tracer
            tracing = tracer is not None and tracer.enabled
            span = None
            if tracing and not piped and tasks[0].trace:
                span = tracer.start("compute", trace_id=tasks[0].trace,
                                    parent_id=tasks[0].trace,
                                    proc=self.node.hostname,
                                    task_id=tasks[0].task_id)
            out: list[Any] = []
            results = 0
            # Depth 1 keeps its compute span live and active, so RPCs
            # issued during compute *and* the write-back join the task's
            # trace as its children.
            with tracer.activate(span) if span is not None else nullcontext():
                shares = self._charge_batch(tasks)
                cursor = started
                for task, share in zip(tasks, shares):
                    failure = None
                    try:
                        payload = (self.app.execute(task.payload)
                                   if self.compute_real else None)
                    except Exception as exc:  # noqa: BLE001 - poison-task quarantine
                        failure = exc
                    # Depth 1 reads the clock (real time on the threaded
                    # runtime); a batch apportions its one CPU charge.
                    compute_ms = share if piped else self.runtime.now() - started
                    attrs: dict[str, Any] = (
                        {"compute_ms": compute_ms} if failure is None
                        else {"status": "error", "error": repr(failure)})
                    if span is not None:
                        span.end(**attrs)
                    elif tracing and task.trace:
                        # The batch's single CPU charge already elapsed;
                        # tile the per-task shares across it so each
                        # trace still shows its own compute interval.
                        tracer.record("compute", trace_id=task.trace,
                                      parent_id=task.trace, start_ms=cursor,
                                      end_ms=cursor + compute_ms,
                                      proc=self.node.hostname, batched=True,
                                      **attrs)
                        cursor += compute_ms
                    if failure is not None:
                        out.append(self._replacement_for(task, failure))
                        continue
                    out.append(ResultEntry(
                        app_id=self.app.app_id, task_id=task.task_id,
                        payload=payload, worker=self.node.hostname,
                        compute_ms=compute_ms, trace=task.trace,
                        tenant=task.tenant, priority=task.priority,
                    ))
                    results += 1
                if not piped:
                    proxy.write(out[0], txn=txn, requeue=True)
                    if txn is not None:
                        txn.commit()
                else:
                    batch = proxy.batch()
                    batch.write_all(out, txn=txn, requeue=True)
                    if txn is not None:
                        batch.commit(txn)
                    if self.transactional:
                        nxt = batch.txn_create(timeout_ms=lease)
                    batch.take_multiple(template, self.prefetch, txn=nxt,
                                        timeout_ms=self.worker_poll_ms)
                    self._pending = (nxt, batch.flush()[-1])
            if results:
                self.last_result_ms = self.runtime.now()
                self.tasks_done += results
        finally:
            self._active_batch = None
            # A batch's txn that was never opened (an unflushed
            # txn_create, an unbound shard handle) never came into being
            # server-side — nothing to abort.
            if (txn is not None and not txn.completed
                    and (txn.opened or not piped)):
                self._abort_quietly(txn)
            # A prefetch txn that survived a failed flush is also released.
            if (self._pending is None and nxt is not None
                    and not nxt.completed and nxt.opened):
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
            if not txn.completed and txn.opened:
                self._abort_quietly(txn)
        elif tasks and self.client is not None:
            try:
                # requeue=True: these tasks were already admitted once;
                # shedding the give-back would lose them (exactly-once).
                self.client.write_all(tasks, requeue=True)
            except (ConnectionClosedError, ConnectionRefusedError_,
                    SpaceError):
                pass  # space gone; nothing more this worker can do

    def _charge_batch(self, tasks: list[TaskEntry]) -> list[float]:
        """Charge a whole batch's modelled CPU in one blocking call.

        Processor sharing is additive under unchanged load, so one
        ``cpu.execute`` of the summed cost ends at the same virtual time
        as per-task charges — but costs one kernel handoff instead of one
        per task.  The elapsed time is apportioned back to the tasks by
        their share of the modelled work, so per-task ``compute_ms``
        matches what one charge per task would have recorded (all zero
        when ``model_time`` is off).
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
