"""Top-level assembly: the adaptive cluster-computing framework.

Wires the paper's three modules onto a :class:`~repro.node.Cluster`:

* master node: JavaSpaces service (+ its network server), Jini lookup
  service + join, the code server, the network management module, and
  the master process;
* every worker node: a :class:`~repro.core.worker.WorkerHost` (SNMP agent
  + rule-base client + remote-configuration engine).

Workers are recruited by the monitoring loop: an idle node's first SNMP
poll produces a Start signal, so an unloaded cluster spins up within one
poll interval — no manual management, the paper's key contribution over
the systems in its Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.application import Application
from repro.core.codeserver import CODE_SERVER_PORT, CodeServer
from repro.core.master import Master, MasterReport
from repro.core.metrics import Metrics
from repro.core.netmgmt import RULEBASE_PORT, NetworkManagementModule
from repro.core.signals import Signal, ThresholdPolicy
from repro.core.tenancy import PreemptionGovernor
from repro.core.worker import WorkerHost
from repro.errors import (
    ConfigurationError,
    MasterCrashedError,
    OutOfMemoryError,
)
from repro.telemetry import FlightRecorder, SloWatchdog, Telemetry
from repro.jini.discovery import DiscoveryClient
from repro.jini.join import JoinManager, LookupClient
from repro.jini.lookup import LookupService, ServiceItem
from repro.net.address import Address
from repro.node.cluster import Cluster
from repro.runtime import SimulatedRuntime
from repro.runtime.base import Runtime
from repro.tuplespace.durable import DurableSpace, HotStandby
from repro.tuplespace.entry import Entry
from repro.tuplespace.failover import (
    HEARTBEAT_MS,
    MAX_MISSES,
    JiniSpaceLocator,
    SpaceSupervisor,
)
from repro.tuplespace.lease import FOREVER
from repro.tuplespace.proxy import (
    AdmissionConfig,
    RecoveryPolicy,
    SpaceProxy,
    SpaceServer,
)
from repro.tuplespace.sharding import HashRing, ShardRouter
from repro.tuplespace.space import JavaSpace
from repro.tuplespace.transaction import TransactionManager
from repro.verify import HistoryRecorder, RecordingSpace

__all__ = ["AdaptiveClusterFramework", "FrameworkConfig"]

SPACE_PORT = 4155
LOOKUP_PORT = 4162

#: Modelled footprints of the master-side services — the paper: "Due to
#: the high memory requirements of the Jini infrastructure, the master
#: module … runs on an 800 MHz … PC with 256 MB RAM."
JINI_FOOTPRINT_MB = 48
SPACE_FOOTPRINT_MB = 64

#: A master that reaches the space over RPC retries once per supervisor
#: heartbeat; this many attempts outlast a failover (promotion takes
#: ``MAX_MISSES`` heartbeats plus the lease wait).
_MASTER_SPACE_RETRIES = 8 * MAX_MISSES

#: Pause before a killed master is restarted (:meth:`run_with_recovery`).
_MASTER_RESTART_DELAY_MS = 500.0


@dataclass(frozen=True)
class FrameworkConfig:
    """Knobs for one framework deployment."""

    poll_interval_ms: float = 1000.0        # SNMP monitoring period
    worker_poll_ms: float = 250.0           # worker take() poll / signal check
    thresholds: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    community: str = "public"               # SNMP community string
    monitoring: bool = True                 # network management module on/off
    use_jini: bool = True                   # discover the space via lookup
    compute_real: bool = True               # actually run app.execute on workers
    transactional_takes: bool = False       # crash-safe task takes (see worker)
    monitoring_mode: str = "poll"           # "poll" (paper) or "trap" (extension)
    port_offset: int = 0                    # shift all service ports so several
                                            # deployments can share one cluster
    eager_scheduling: bool = False          # replicate straggling tasks
    straggler_timeout_ms: float = 5_000.0   # quiet period before replication

    # -- robustness / self-healing (see DESIGN.md "Fault model & recovery") --
    reconnect_base_ms: float = 50.0         # backoff: base of the exponential
    reconnect_max_ms: float = 2_000.0       # backoff cap
    rpc_timeout_ms: Optional[float] = 10_000.0  # space RPC reply deadline
    max_task_attempts: int = 3              # app failures before dead-letter
    dead_letter_poll_ms: float = 1_000.0    # master's quarantine-drain period
    give_up_after_ms: Optional[float] = None  # master's partial-result deadline

    # -- durability / failover (see DESIGN.md "Recovery model") -------------
    durable_space: bool = False             # WAL + snapshots behind the space
    hot_standby: bool = False               # replica + supervisor + promotion
    master_checkpoint_ms: Optional[float] = None  # checkpoint staleness bound
    task_txn_lease_ms: Optional[float] = None  # worker task-txn lease (None=∞)
    staleness_ms: Optional[float] = None    # SNMP sample staleness window

    # -- end-to-end throughput (see DESIGN.md "Throughput path") -------------
    worker_prefetch: int = 1                # tasks per worker pipeline cycle
    master_seed_batch: int = 1              # tasks per seeding write_all
    master_drain_batch: int = 1             # results per drain round trip
    wal_fsync_policy: str = "always"        # durability barrier: always|group|os

    # -- sharding (see DESIGN.md §10 "Sharded space") ------------------------
    #: Number of tuple-space partitions.  1 = the classic single space.
    shards: int = 1
    #: Where shard servers live: ``"master"`` keeps them all on the master
    #: node (more ports, same host); ``"spread"`` round-robins them over
    #: ``cluster.nodes`` so each shard has its own network link;
    #: ``"dedicated"`` round-robins them over ``cluster.space_hosts`` —
    #: nodes that run no worker, the paper's deployment shape — so shard
    #: egress never queues behind a co-located worker's result uploads.
    #: With ``"spread"``/``"dedicated"`` the router path is used even at
    #: ``shards=1`` (a served shard, reached via RPC) so scaling sweeps
    #: compare like-for-like.
    shard_placement: str = "master"

    # -- telemetry (see DESIGN.md "Observability") ---------------------------
    #: Record per-task span trees (virtual-time under simulation).  Trace
    #: IDs are minted and stamped into entries *regardless* of this flag —
    #: enabling it only turns on span recording, so traced and untraced
    #: runs share one virtual timeline (``--verify-determinism`` holds).
    trace: bool = False
    #: Period for mirroring registry instruments into the ``Metrics``
    #: series via the kernel's ``on_advance`` hook (``None`` = off).
    #: Setting it also arms the SLO watchdog's default rule pack, which
    #: rides the snapshot frames.
    metrics_snapshot_ms: Optional[float] = None

    # -- consistency checking (see DESIGN.md §11) ----------------------------
    #: Record a per-entry operation history (writes/takes/reads with
    #: invocation + response windows) through recording wrappers around
    #: every space client, for the post-run consistency checker
    #: (:mod:`repro.verify`).  Off by default: the history lives in
    #: memory for the whole run.
    record_history: bool = False

    # -- multi-tenancy (see DESIGN.md §12 "Multi-tenant job service") --------
    #: This deployment's own master's tenant identity (stamped on every
    #: TaskEntry it seeds) and scheduling priority.  Extra tenants join
    #: via :meth:`AdaptiveClusterFramework.attach_tenant_master`.
    tenant: Optional[str] = None
    priority: Optional[int] = None
    #: tenant → fair-share weight for the space's deficit-round-robin
    #: task dispatch.  ``None`` keeps plain FIFO takes.
    tenant_shares: Optional[dict[str, float]] = None
    #: Enable server-side admission control (quotas, rate limits,
    #: watermark shedding) on every space server.  The deployment's own
    #: master then reaches the space over RPC even in the classic
    #: single-space shape, so its writes are metered like everyone
    #: else's.
    admission: bool = False
    admission_soft_watermark: Optional[int] = None  # shed low priority above
    admission_quotas: Optional[dict[str, int]] = None   # per-tenant overrides
    admission_rates: Optional[dict[str, float]] = None
    #: Priority preemption: a governor that Pauses workers hoarding
    #: prefetched low-priority carries while urgent backlog waits (see
    #: :mod:`repro.core.tenancy`).
    preemption: bool = False
    preemption_poll_ms: float = 500.0


@dataclass(frozen=True)
class _Shard:
    """One row of the placement table.  The classic deployment is the
    one-row case: the master node at ``SPACE_PORT``, no name suffix, no
    labels — what every trace, Jini item and Prometheus dump carries."""

    host: str                   # where the primary's server listens
    address: Address
    standby_address: Address    # where the promoted replica would serve
    suffix: str                 # "" or ":shard<i>", on every service name
    labels: dict[str, str]      # registry labels, Jini attribute, locator query


class AdaptiveClusterFramework:
    """One deployment of the framework on a cluster, for one application."""

    def __init__(
        self,
        runtime: Runtime,
        cluster: Cluster,
        app: Application,
        config: Optional[FrameworkConfig] = None,
        metrics: Optional[Metrics] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.runtime = runtime
        self.cluster = cluster
        self.app = app
        self.config = config if config is not None else FrameworkConfig()
        self.metrics = metrics if metrics is not None else Metrics(runtime)
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry(runtime, trace=self.config.trace))
        self.tracer = self.telemetry.tracer
        self.registry = self.telemetry.registry
        # Cost models charge virtual CPU only under simulation; on the
        # threaded runtime the real computation already takes real time.
        self._model_time = isinstance(runtime, SimulatedRuntime)
        if self.config.hot_standby and not self.config.use_jini:
            raise ConfigurationError(
                "hot_standby needs use_jini: failover re-registers the "
                "promoted standby with the lookup service"
            )
        if self.config.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1: {self.config.shards}")
        if self.config.shard_placement not in ("master", "spread", "dedicated"):
            raise ConfigurationError(
                f"shard_placement must be 'master', 'spread' or "
                f"'dedicated': {self.config.shard_placement!r}")
        if (self.config.shard_placement == "dedicated"
                and not cluster.space_hosts):
            raise ConfigurationError(
                "shard_placement='dedicated' needs cluster.add_space_hosts()")
        if not self.config.admission:
            for name in ("admission_soft_watermark", "admission_quotas",
                         "admission_rates"):
                if getattr(self.config, name) is not None:
                    raise ConfigurationError(
                        f"{name} needs admission=True: without admission "
                        f"control it configures nothing")
        #: True when the space is partitioned behind a ShardRouter.  The
        #: classic single in-process space (shards=1, placement "master")
        #: keeps the exact legacy wiring; "spread"/"dedicated" force the
        #: router path even at one shard so scaling sweeps compare
        #: like-for-like.
        self.sharded = (self.config.shards > 1
                        or self.config.shard_placement in ("spread",
                                                           "dedicated"))
        self.placement, self.ring = self._place_shards()
        self._registrar = Address(cluster.master.hostname,
                                  LOOKUP_PORT + self.config.port_offset)
        self.shard_hosts = [shard.host for shard in self.placement]
        self.shard_addresses = [shard.address for shard in self.placement]
        self.shard_standby_addresses = [shard.standby_address
                                        for shard in self.placement]
        self.space_address = self.shard_addresses[0]
        self.spaces: list[JavaSpace] = [
            self._make_space(f"space:{app.app_id}{shard.suffix}")
            for shard in self.placement
        ]
        self.space: JavaSpace = self.spaces[0]
        # Registry naming scheme: a space's counters surface as
        # ``space.<key>`` (read-through — no per-op registry cost).
        for shard, space in zip(self.placement, self.spaces):
            self.registry.expose_dict("space", space.stats, **shard.labels)
            self.registry.expose_dict("space.match", space.match_stats,
                                      **shard.labels)
            self.registry.expose(
                "space.queue_depth",
                lambda s=space: max(
                    s.stats["writes"] - s.stats["takes"]
                    - s.stats["expired"], 0),
                **shard.labels)
            if isinstance(space, DurableSpace):
                self._expose_wal(space, **shard.labels)
        self.space_server: Optional[SpaceServer] = None
        self.space_servers: list[SpaceServer] = []
        self.code_server: Optional[CodeServer] = None
        self.lookup: Optional[LookupService] = None
        self.netmgmt: Optional[NetworkManagementModule] = None
        self.standbys: list[HotStandby] = []
        self.supervisors: list[SpaceSupervisor] = []
        self._joins: list[JoinManager] = []
        self._master_proxy: Optional[Any] = None
        self.master_restarts = 0
        #: Extra tenants sharing this deployment (see
        #: :meth:`attach_tenant_master`).
        self.tenant_masters: list[Master] = []
        #: Priority-preemption governor (``config.preemption``).
        self.governor: Optional[Any] = None
        #: Shared operation history for the consistency checker.
        self.history: Optional[Any] = None
        if self.config.record_history:
            self.history = HistoryRecorder(runtime)
        #: End-to-end task latency (seed → aggregated), the watchdog's
        #: ``task.latency_ms.p99`` feed.  Deterministic log-bucketed
        #: quantiles — no reservoir sampling to perturb.
        self.task_latency = self.registry.histogram("task.latency_ms")
        #: SLO watchdog (built in :meth:`start` when snapshots are on).
        self.watchdog: Optional[Any] = None
        #: Always-on black-box flight recorder: observes metrics events
        #: and (when tracing) spans through passive hooks, dumps
        #: postmortem bundles on standby promotion or checker failure.
        self.flight = FlightRecorder(runtime)
        self.flight.attach(metrics=self.metrics, tracer=self.tracer,
                           registry=self.registry, history=self.history)
        self.master = self._build_master()
        self.worker_hosts: list[WorkerHost] = []
        self._started = False

    def _place_shards(self) -> tuple[list[_Shard], Optional[HashRing]]:
        """The placement table, one row per shard, and the ring that
        routes over it (none for the classic single row)."""
        config, cluster = self.config, self.cluster
        master_host = cluster.master.hostname
        port = SPACE_PORT + config.port_offset
        if not self.sharded:
            return [_Shard(master_host, Address(master_host, port),
                           Address(master_host, port + 1), "", {})], None
        pool = {"master": [cluster.master], "spread": cluster.nodes,
                "dedicated": cluster.space_hosts}[config.shard_placement]
        placement = []
        for i in range(config.shards):
            host = pool[i % len(pool)].hostname
            # Shard ports live in their own window (+100) so they never
            # collide with the classic space/standby pair or the lookup
            # port, spaced by 2 so each standby gets primary port + 1.
            address = Address(host, port + 100 + 2 * i)
            # Standby replicas (and their supervisors) live on the master
            # node regardless of shard placement: they must survive (and
            # observe) faults that hit the primary's machine or its links.
            placement.append(_Shard(
                host, address, Address(master_host, address.port + 1),
                f":shard{i}", {"shard": str(i)}))
        return placement, HashRing(config.shards)

    def _expose_wal(self, space: DurableSpace, **labels: str) -> None:
        """Trace ``space``'s log and expose its read-through gauges:
        commits and barriers, then what the checkpoint trigger weighs
        (``wal.tail_bytes`` against ``wal.state_bytes``, the size of the
        last checkpoint) and how often it fired."""
        wal = space.wal
        wal.tracer = self.tracer
        expose = self.registry.expose
        expose("wal.commits", lambda: wal.last_lsn, **labels)
        expose("wal.syncs", lambda: wal.store.syncs, **labels)
        expose("wal.tail_bytes", lambda: wal.store.tail_bytes, **labels)
        expose("wal.state_bytes", lambda: wal.store.state_bytes, **labels)
        expose("wal.checkpoints", lambda: wal.store.checkpoints, **labels)
        expose("space.epoch", lambda: wal.epoch, **labels)

    def _make_space(self, name: str) -> JavaSpace:
        config = self.config
        if config.durable_space or config.hot_standby:
            return DurableSpace(self.runtime, name=name,
                                fsync_policy=config.wal_fsync_policy)
        return JavaSpace(self.runtime, name=name)

    def _space_locator(self, host: str, shard: _Shard) -> JiniSpaceLocator:
        """A lookup-backed locator so ``host`` finds ``shard`` post-failover
        (sharded items register with a ``shard`` attribute, so the query —
        and hence failover re-discovery — is pinned per shard)."""
        return JiniSpaceLocator(
            self.cluster.network, host, self._registrar,
            {"type": "JavaSpaces", "app": self.app.app_id, **shard.labels},
            call_timeout_ms=self.config.rpc_timeout_ms,
        )

    def _space_client(self, host: str, name: str, recovery: Any = None,
                      rng: Any = None, in_process_ok: bool = False) -> Any:
        """The one rule for which space client a process on ``host`` gets.

        Sharded: a :class:`ShardRouter` over every shard server (a
        co-hosted shard is still served over loopback RPC, so all shards
        are symmetric).  Otherwise a :class:`SpaceProxy`; with a hot
        standby either carries lookup-backed locators, so a failover
        redirects it to the promoted replica.  Only the deployment's own
        master (``in_process_ok``) keeps the zero-copy in-process space
        the scalability experiments measure — unless admission control,
        enforced at the server, would be bypassed that way.  With
        ``record_history`` the client records under ``name``.
        """
        config, network = self.config, self.cluster.network
        space: Any
        if self.sharded:
            space = ShardRouter(
                network, host, list(self.shard_addresses), ring=self.ring,
                recovery=recovery, rng=rng, metrics=self.metrics,
                locators=([self._space_locator(host, shard)
                           for shard in self.placement]
                          if config.hot_standby else None),
                tracer=self.tracer,
            )
        elif in_process_ok and not (config.hot_standby or config.admission):
            space = self.space
        else:
            space = SpaceProxy(
                network, host, self.space_address, recovery=recovery,
                rng=rng, metrics=self.metrics, tracer=self.tracer,
                locator=(self._space_locator(host, self.placement[0])
                         if config.hot_standby else None),
            )
        if self.history is not None:
            space = RecordingSpace(space, self.history, client=name)
        return space

    def _make_master(self, space: Any, app: Application,
                     tenant: Optional[str], priority: Optional[int],
                     checkpointing: bool) -> Master:
        """The one place a master process is built."""
        config = self.config
        retry_ms: Optional[float] = None
        if self.sharded or config.hot_standby:
            # Servers that can crash, restart or fail over are reached
            # over RPC: the master rides that out like any other client,
            # one retry per supervisor heartbeat.
            retry_ms = HEARTBEAT_MS
        elif config.admission:
            # AdmissionError is a pre-dispatch rejection, so the master's
            # guard may re-issue the op verbatim after the server's
            # retry-after hint; this floor keeps the guard's loop alive.
            retry_ms = AdmissionConfig.retry_after_ms
        return Master(
            self.runtime, self.cluster.master, space, app, self.metrics,
            eager_scheduling=config.eager_scheduling,
            straggler_timeout_ms=config.straggler_timeout_ms,
            model_time=self._model_time,
            dead_letter_poll_ms=config.dead_letter_poll_ms,
            give_up_after_ms=config.give_up_after_ms,
            checkpoint_ms=(config.master_checkpoint_ms if checkpointing
                           else None),
            space_retry_ms=retry_ms,
            space_max_retries=_MASTER_SPACE_RETRIES,
            seed_batch=config.master_seed_batch,
            drain_batch=config.master_drain_batch,
            tracer=self.tracer,
            tenant=tenant,
            priority=priority,
            latency_hist=self.task_latency,
        )

    def _build_master(self) -> Master:
        """Create this deployment's own (or, after a kill, its next)
        master process, on a fresh space client."""
        if self._master_proxy is not None:
            self._master_proxy.close()
        space = self._space_client(self.cluster.master.hostname, "master",
                                   in_process_ok=True)
        # The in-process space holds no connection for shutdown to close.
        self._master_proxy = space if hasattr(space, "close") else None
        return self._make_master(space, self.app, self.config.tenant,
                                 self.config.priority, checkpointing=True)

    def attach_tenant_master(
        self,
        app: Application,
        tenant: str,
        priority: Optional[int] = None,
    ) -> Master:
        """A further tenant's :class:`Master` sharing this deployment.

        Tenants share the space, the worker pool and the ``app_id`` —
        workers load one class set and take with a tenant-wildcard
        template, so *which* tenant's task a worker gets is the space's
        deficit-round-robin dispatcher's call, weighted by
        ``config.tenant_shares``.  The caller must namespace task IDs so
        they never collide across tenants (task identity is
        ``(app_id, task_id)``).  Run the returned master from its own
        runtime process; its report is independent of every other
        tenant's.  Tenant masters do not checkpoint.
        """
        if app.app_id != self.app.app_id:
            raise ConfigurationError(
                f"tenant app_id {app.app_id!r} != deployment app_id "
                f"{self.app.app_id!r}: workers serve exactly one class set")
        space = self._space_client(self.cluster.master.hostname,
                                   f"master:{tenant}")
        master = self._make_master(space, app, tenant, priority,
                                   checkpointing=False)
        self.tenant_masters.append(master)
        return master

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        """Bring up all services and worker hosts (no tasks planned yet)."""
        if self._started:
            raise ConfigurationError("framework already started")
        # Started only once the services fit: a later run() must raise
        # that ConfigurationError again, not run a serverless master.
        self._reserve_master_ram()
        self._started = True
        config = self.config
        self._start_space_servers()
        self._start_tenancy()
        self._start_code_server()
        if config.use_jini:
            self._start_jini()
        if config.hot_standby:
            self._start_failover()
        if config.monitoring:
            self._start_monitoring()
        self._start_telemetry()
        self._start_workers()

    def _reserve_master_ram(self) -> None:
        """The master must fit the service stack in RAM (the paper's reason
        for the 256 MB master even on the 64 MB-worker testbed)."""
        master = self.cluster.master
        try:
            master.memory.allocate(f"javaspaces:{self.app.app_id}",
                                   SPACE_FOOTPRINT_MB * 1024)
            if self.config.use_jini:
                master.memory.allocate("jini-infrastructure",
                                       JINI_FOOTPRINT_MB * 1024)
        except OutOfMemoryError as exc:
            raise ConfigurationError(
                f"master node {master.hostname!r} ({master.spec}) cannot "
                f"host the Jini/JavaSpaces services: {exc}"
            ) from exc

    def _start_space_servers(self) -> None:
        """JavaSpaces service: one server per shard.  Each shard has its
        own transaction manager — transactions are shard-local by
        construction."""
        runtime, config = self.runtime, self.config
        for shard, space in zip(self.placement, self.spaces):
            server = SpaceServer(
                runtime, space, self.cluster.network, shard.address,
                txn_manager=TransactionManager(runtime, metrics=self.metrics),
            )
            if config.hot_standby:
                # Epoch fencing is only meaningful with a supervisor that
                # can promote a rival: enable the fence check and grant the
                # primary lease the supervisor's probes will keep renewing.
                server.fencing = True
                server.grant_lease(HEARTBEAT_MS * MAX_MISSES)
                # With a standby that may be promoted, an ack the standby
                # never saw is a future lost write — gate on its
                # confirmation (drop the client unanswered on timeout).
                server.sync_replication = True
            server.start()
            self.space_servers.append(server)
        self.space_server = self.space_servers[0]
        if config.hot_standby:
            self.registry.expose("space.fenced_rpcs", self.total_fenced_rpcs)

    def _start_tenancy(self) -> None:
        """Multi-tenancy: weighted fair-share dispatch inside every space,
        admission control in front of every server, and per-tenant
        read-through telemetry for tenants the config names."""
        config = self.config
        if config.tenant_shares is not None:
            for shard, space in zip(self.placement, self.spaces):
                space.configure_fair_share(config.tenant_shares)
                self.registry.expose_dict("space.fair", space.fair_stats,
                                          **shard.labels)
        if config.admission:
            admission_config = AdmissionConfig(
                queue_soft_watermark=config.admission_soft_watermark,
                quotas=config.admission_quotas,
                rates=config.admission_rates,
            )
            for shard, server in zip(self.placement, self.space_servers):
                server.enable_admission(admission_config)
                self.registry.expose_dict("admission",
                                          server.admission.stats,
                                          **shard.labels)
        for tenant in self._named_tenants():
            for key in ("admitted", "rejected", "shed"):
                self.registry.expose(
                    f"tenant.{key}",
                    lambda t=tenant, k=key: self.tenant_admission(t).get(k, 0),
                    tenant=tenant)
            self.registry.expose(
                "tenant.grants",
                lambda t=tenant: self.tenant_grants().get(t, 0),
                tenant=tenant)
        if config.preemption:
            self.governor = PreemptionGovernor(
                self.runtime, self, self.metrics,
                poll_ms=config.preemption_poll_ms,
            )
            self.governor.start()
            self.registry.expose_dict("preemption", self.governor.stats)

    def _start_code_server(self) -> None:
        """Code server for remote node configuration."""
        self.code_server = CodeServer(
            self.runtime, self.cluster.network, self.cluster.master.hostname,
            port=CODE_SERVER_PORT + self.config.port_offset)
        self.code_server.publish(self.app.app_id, self.app.classload_profile())
        self.code_server.start()

    def _start_jini(self) -> None:
        """Jini substrate: every shard registers its JavaSpaces service
        (the labels ride along as attributes: see :meth:`_space_locator`)."""
        runtime, network = self.runtime, self.cluster.network
        self.lookup = LookupService(runtime, network, self._registrar)
        self.lookup.start()
        for shard, space in zip(self.placement, self.spaces):
            attributes: dict[str, Any] = {
                "type": "JavaSpaces", "app": self.app.app_id, **shard.labels}
            if self.config.hot_standby:
                # Epoch attribute: locators prefer the highest-epoch
                # registration post-failover.
                attributes["epoch"] = space.wal.epoch
            join = JoinManager(
                runtime, network, shard.host, self._registrar,
                ServiceItem(f"javaspaces:{self.app.app_id}{shard.suffix}",
                            shard.address, attributes),
                lease_ms=FOREVER,
            )
            join.start()
            self._joins.append(join)

    def _start_failover(self) -> None:
        """Hot standby: replicate each primary's commit stream and stand
        by to serve it; the supervisor heartbeats the primary and performs
        the promotion + re-registration when it goes quiet."""
        runtime, network = self.runtime, self.cluster.network
        master_host = self.cluster.master.hostname
        for shard, join in zip(self.placement, self._joins):
            standby = HotStandby(
                runtime, network, master_host,
                primary_address=shard.address,
                address=shard.standby_address,
                name=f"space-standby:{self.app.app_id}{shard.suffix}",
                metrics=self.metrics,
                sync_replication=True,
            )
            standby.start()
            self.standbys.append(standby)
            supervisor = SpaceSupervisor(
                runtime, network, master_host,
                standby=standby,
                primary_address=shard.address,
                registrar=self._registrar,
                service_item=join.item,
                old_registration_id=join.registration_id,
                metrics=self.metrics,
            )
            supervisor.start()
            self.supervisors.append(supervisor)
        # What liveness costs: probes put on the wire per shard (a
        # round shared by co-hosted shards counts once for each),
        # those that came back as anything but "ok", and the
        # renewals the nodes' lease endpoints handled.
        for shard, supervisor in zip(self.placement, self.supervisors):
            self.registry.expose(
                "failover.probes", lambda s=supervisor: s.probes,
                **shard.labels)
            self.registry.expose(
                "failover.probe_misses",
                lambda s=supervisor: s.probe_misses, **shard.labels)
        self.registry.expose("failover.lease_renewals", self.lease_renewals)
        # Standby replication lag in WAL frames (primary LSN minus
        # the standby's applied LSN) — the watchdog's
        # ``space.replication_lag`` feed.  Read-through: sampled at
        # snapshot time, free on the commit path.
        for shard, space, standby in zip(self.placement, self.spaces,
                                         self.standbys):
            self.registry.expose(
                "space.replication_lag",
                lambda s=space, r=standby: max(
                    0, s.wal.last_lsn - r.applied_lsn),
                **shard.labels)

    def _start_monitoring(self) -> None:
        """Network management module on the master host."""
        config = self.config
        offset = config.port_offset
        self.netmgmt = NetworkManagementModule(
            self.runtime, self.cluster.network, self.cluster.master.hostname,
            self.metrics,
            policy=config.thresholds,
            poll_interval_ms=config.poll_interval_ms,
            community=config.community,
            mode=config.monitoring_mode,
            port=RULEBASE_PORT + offset,
            trap_port=None if offset == 0 else 162 + offset,
            staleness_ms=config.staleness_ms,
            registry=self.registry,
        )
        self.netmgmt.start()

    def _start_telemetry(self) -> None:
        """Remaining component stats join the registry as read-through
        views; periodic snapshots mirror them into the Metrics series."""
        config = self.config
        self.registry.expose_dict("net", self.cluster.network.stats)
        kernel = getattr(self.runtime, "kernel", None)
        if kernel is not None:
            # Thread hand-offs of the simulator: what a message costs
            # beyond its events.
            self.registry.expose("sim.switches", lambda: kernel.switches)
        if config.master_checkpoint_ms is not None:
            # No progress = flat count, bounded age; stuck = age unbounded.
            for name in ("checkpoints_written", "checkpoint_age_ms"):
                self.registry.expose(
                    f"master.{name}", lambda name=name: getattr(
                        self.master, name), app=self.app.app_id)
        if config.metrics_snapshot_ms is not None:
            self.telemetry.enable_snapshots(
                self.metrics, interval_ms=config.metrics_snapshot_ms)
            # SLO watchdog rides the snapshot frames: same on_advance
            # hook, zero scheduled events, deterministic firing times.
            self.watchdog = SloWatchdog(
                self.registry, metrics=self.metrics, tracer=self.tracer)
            self.watchdog.attach(self.telemetry.snapshotter)
            self.flight.watchdog = self.watchdog

    def _start_workers(self) -> None:
        """Worker hosts on every worker node."""
        config = self.config
        recovery = RecoveryPolicy(
            base_backoff_ms=config.reconnect_base_ms,
            max_backoff_ms=config.reconnect_max_ms,
            call_timeout_ms=config.rpc_timeout_ms,
        )
        for node in self.cluster.workers:
            node.snmp_community = config.community
            # Jitter from a per-worker named stream: deterministic under a
            # fixed seed, independent across workers.  The factory
            # captures the same stream so a rebuilt worker client keeps
            # drawing from it.
            recovery_rng = self.cluster.streams.stream(
                f"recovery:{node.hostname}")
            host = WorkerHost(
                self.runtime, node, self.app,
                space_factory=(
                    lambda hostname=node.hostname, rng=recovery_rng:
                    self._space_client(hostname, hostname,
                                       recovery=recovery, rng=rng)),
                code_server=Address(self.cluster.master.hostname,
                                    CODE_SERVER_PORT + config.port_offset),
                netmgmt_address=(self.netmgmt.address if self.netmgmt
                                 else None),
                metrics=self.metrics,
                worker_poll_ms=config.worker_poll_ms,
                compute_real=config.compute_real,
                transactional=config.transactional_takes,
                model_time=self._model_time,
                max_task_attempts=config.max_task_attempts,
                recovery=recovery,
                task_txn_lease_ms=config.task_txn_lease_ms,
                prefetch=config.worker_prefetch,
                tracer=self.tracer,
                recovery_rng=recovery_rng,
            )
            host.start()
            self.worker_hosts.append(host)

    def resolve_space_via_jini(self, from_host: str) -> Address:
        """Exercise discovery + lookup to find the space service."""
        registrars = DiscoveryClient(self.runtime, self.cluster.network, from_host).discover(
            timeout_ms=50.0, expected=1
        )
        if not registrars:
            raise ConfigurationError("no lookup service discovered")
        client = LookupClient(self.cluster.network, from_host, registrars[0])
        try:
            items = client.lookup({"type": "JavaSpaces", "app": self.app.app_id})
            if not items:
                raise ConfigurationError("JavaSpaces service not registered")
            return items[0].service
        finally:
            client.close()

    def start_all_workers(self) -> None:
        """Manually Start every worker (used when monitoring is off)."""
        for host in self.worker_hosts:
            host.handle_signal(Signal.START)

    def _ensure_running(self) -> None:
        """Started, and — with no monitoring loop to recruit them — every
        worker told to Start."""
        if not self._started:
            self.start()
        if self.netmgmt is None:
            self.start_all_workers()

    def run(self) -> MasterReport:
        """Run the master to completion (call from a runtime process)."""
        self._ensure_running()
        return self.master.run()

    def run_with_recovery(self) -> MasterReport:
        """Like :meth:`run`, but a killed master is restarted.

        A fresh master (new space proxy, same deterministic plan) adopts
        the latest :class:`~repro.core.entries.MasterCheckpointEntry` from
        the space and completes the job exactly-once.  Requires
        ``master_checkpoint_ms`` to be useful — without checkpoints the
        restarted master re-plans from scratch.
        """
        self._ensure_running()
        while True:
            try:
                return self.master.run()
            except MasterCrashedError:
                self.master_restarts += 1
                self.metrics.event("master-killed", app=self.app.app_id)
                self.runtime.sleep(_MASTER_RESTART_DELAY_MS)
                self.master = self._build_master()
                self.metrics.event("master-restarted", app=self.app.app_id,
                                   restarts=self.master_restarts)

    def _named_tenants(self) -> list[str]:
        """Tenants the config names anywhere — they get labeled metrics."""
        named: set[str] = set()
        config = self.config
        if config.tenant is not None:
            named.add(config.tenant)
        for mapping in (config.tenant_shares, config.admission_quotas,
                        config.admission_rates):
            if mapping:
                named.update(mapping)
        return sorted(named)

    def tenant_admission(self, tenant: str) -> dict[str, int]:
        """One tenant's admission counters, summed over every server."""
        totals = {"admitted": 0, "rejected": 0, "shed": 0}
        for server in self.space_servers:
            if server.admission is None:
                continue
            for key, value in server.admission.tenant_stats.get(
                    tenant, {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def tenant_grants(self) -> dict[str, int]:
        """Fair-share take grants per tenant, summed over every shard."""
        grants: dict[str, int] = {}
        for space in self.current_spaces():
            for key, value in getattr(space, "fair_stats", {}).items():
                if key.startswith("grants:"):
                    tenant = key[len("grants:"):]
                    grants[tenant] = grants.get(tenant, 0) + value
        return grants

    def total_fenced_rpcs(self) -> int:
        """RPCs rejected by the fence across every server incarnation —
        the original primaries plus any supervisor-promoted standby."""
        total = sum(server.fenced_rpcs for server in self.space_servers)
        total += sum(
            supervisor.server.fenced_rpcs
            for supervisor in self.supervisors
            if supervisor.server is not None
        )
        return total

    def current_spaces(self) -> list[JavaSpace]:
        """The authoritative space object per shard — the original primary,
        or the promoted standby's replica after a failover."""
        spaces = list(self.spaces)
        for i, supervisor in enumerate(self.supervisors):
            if supervisor.failed_over and supervisor.server is not None:
                spaces[i] = supervisor.server.space
        return spaces

    def final_contents(self) -> list[Entry]:
        """Every entry still visible in the (post-failover) space, all
        shards merged — the consistency checker's ground truth."""
        entries: list[Entry] = []
        for space in self.current_spaces():
            entries.extend(space.contents(Entry()))
        return entries

    def lease_renewals(self) -> int:
        """Lease-renewal pings handled by every node's lease endpoint."""
        return sum(agent.renewals
                   for (_, kind), agent in
                   self.cluster.network.node_agents.items()
                   if kind == "lease")

    # -- fault-injection hooks ---------------------------------------------------

    def _kill_space_server(self, index: int, event: str,
                           **payload: Any) -> None:
        if self.space_servers:
            server = self.space_servers[index]
            self.metrics.event(event, app=self.app.app_id, **payload)
            server.crash()

    def kill_primary_space(self) -> None:
        """Crash the primary space server: connections drop, clients must
        ride out the failover to the promoted standby."""
        self._kill_space_server(0, "space-primary-killed")

    def kill_shard(self, shard: int) -> None:
        """Crash one shard's primary server.  Other shards keep serving;
        with ``hot_standby`` that shard's supervisor promotes its replica
        independently."""
        self._kill_space_server(shard, "space-shard-killed", shard=shard)

    def kill_master(self) -> None:
        """Kill the master process mid-run (see :meth:`run_with_recovery`)."""
        self.metrics.event("master-kill-injected", app=self.app.app_id)
        self.master.crash()

    def shutdown(self) -> None:
        """Stop every loop so a simulated run drains its event heap."""
        # A master abandoned mid-run (experiments that observe workers,
        # not completion) would otherwise keep scheduling its dead-letter
        # poll forever and the simulation would never go idle.
        self.master.cancel()
        for master in self.tenant_masters:
            master.cancel()
        if self.governor is not None:
            self.governor.stop()
        for master in self.tenant_masters:
            master.space.close()
        for host in self.worker_hosts:
            host.stop()
        if self.netmgmt is not None:
            self.netmgmt.stop()
        for supervisor in self.supervisors:
            supervisor.stop()
        for standby in self.standbys:
            standby.stop()
        if self._master_proxy is not None:
            self._master_proxy.close()
        if self.lookup is not None:
            self.lookup.stop()
        if self.code_server is not None:
            self.code_server.stop()
        for server in self.space_servers:
            server.stop()

    # -- observation -----------------------------------------------------------------------

    def worker_times_ms(self) -> dict[str, Optional[float]]:
        """Per-worker computation time (first take → last result)."""
        return {h.node.hostname: h.worker_time_ms() for h in self.worker_hosts}

    def max_worker_time_ms(self) -> float:
        times = [t for t in self.worker_times_ms().values() if t is not None]
        return max(times) if times else 0.0
