"""Deployment wiring, pinned shape by shape.

What a deployment *is* on the wire and in the Prometheus text — space and
service-item names, every shard and standby address, the registry's
instrument names with their label sets, the order of the exposition
lines, and which space client the master, a tenant master and a worker
end up holding — must not depend on how ``AdaptiveClusterFramework``
assembles it.  The expectations below are spelled out from the shape
alone (classic = one unnamed, unlabeled shard on the master at
``SPACE_PORT``; sharded = ``:shard<i>`` names, ``shard="<i>"`` labels,
the +100 port window), so an assembly refactor has to keep passing them
unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import pytest

from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.net import Address
from repro.node.cluster import testbed_small
from repro.node.machine import FAST_PC
from repro.runtime import SimulatedRuntime
from repro.sim.rng import RandomStreams
from tests.conftest import run_in_sim
from tests.core.toyapp import SumOfSquares

APP = SumOfSquares.app_id
WORKERS = 3
TASKS = 12

# -- instrument families: which names a feature brings, and how labeled ------

SPACE = ["space.bytes_written", "space.events", "space.expired",
         "space.listener_errors", "space.match.index_builds",
         "space.match.scan_steps", "space.queue_depth", "space.reads",
         "space.takes", "space.wakeups", "space.writes"]
WAL = ["space.epoch", "wal.checkpoints", "wal.commits", "wal.state_bytes",
       "wal.syncs", "wal.tail_bytes"]
FAILOVER = ["failover.probe_misses", "failover.probes",
            "space.replication_lag"]
ADMISSION = ["admission.admitted", "admission.checked",
             "admission.rejected", "admission.shed"]
ALWAYS = ["net.datagram_bytes", "net.datagrams", "net.dropped",
          "net.message_bytes", "net.messages", "net.partition_dropped",
          "net.resets", "sim.switches", "task.latency_ms"]
STANDBY_GLOBAL = ["failover.lease_renewals", "space.fenced_rpcs"]
TENANT = ["tenant.admitted", "tenant.grants", "tenant.rejected",
          "tenant.shed"]
CHECKPOINT = ["master.checkpoint_age_ms", "master.checkpoints_written"]


@dataclass
class Shape:
    config: dict
    #: Host of each shard's primary; standbys always sit on the master.
    hosts: list[str] = field(default_factory=lambda: ["master"])
    sharded: bool = False
    per_shard: list[str] = field(default_factory=lambda: list(SPACE))
    unlabeled: list[str] = field(default_factory=lambda: list(ALWAYS))
    tenant: str | None = None
    checkpoints: bool = False
    #: Type names, outermost first, of the client each party holds.
    master: list[str] = field(default_factory=lambda: ["JavaSpace"])
    tenant_master: list[str] = field(default_factory=lambda: ["SpaceProxy"])
    worker: list[str] = field(default_factory=lambda: ["SpaceProxy"])

    @property
    def standby(self) -> bool:
        return bool(self.config.get("hot_standby"))


_ROUTED = dict(sharded=True, master=["ShardRouter"],
               tenant_master=["ShardRouter"], worker=["ShardRouter"])

SHAPES = {
    "plain": Shape({}),
    "hot_standby": Shape(
        dict(hot_standby=True),
        per_shard=SPACE + WAL + FAILOVER,
        unlabeled=ALWAYS + STANDBY_GLOBAL,
        master=["SpaceProxy"]),
    "admission": Shape(
        dict(admission=True, tenant="t0", tenant_shares={"t0": 2.0}),
        per_shard=SPACE + ADMISSION, tenant="t0",
        master=["SpaceProxy"]),
    "record_history": Shape(
        dict(record_history=True),
        master=["RecordingSpace", "JavaSpace"],
        tenant_master=["RecordingSpace", "SpaceProxy"],
        worker=["RecordingSpace", "SpaceProxy"]),
    "shards4_master": Shape(
        dict(shards=4), hosts=["master"] * 4, **_ROUTED),
    "shards4_spread": Shape(
        dict(shards=4, shard_placement="spread", hot_standby=True,
             admission=True, tenant="t0", tenant_shares={"t0": 2.0},
             master_checkpoint_ms=1_000.0),
        hosts=["master", "worker1", "worker2", "worker3"],
        per_shard=SPACE + WAL + FAILOVER + ADMISSION,
        unlabeled=ALWAYS + STANDBY_GLOBAL, tenant="t0", checkpoints=True,
        **_ROUTED),
    "shards4_dedicated": Shape(
        dict(shards=4, shard_placement="dedicated", hot_standby=True),
        hosts=["space1", "space2", "space1", "space2"],
        per_shard=SPACE + WAL + FAILOVER,
        unlabeled=ALWAYS + STANDBY_GLOBAL, **_ROUTED),
}


def _client_stack(client) -> list[str]:
    """Type names from the outermost wrapper down to the real client."""
    names = [type(client).__name__]
    while names[-1] == "RecordingSpace":
        client = client._space
        names.append(type(client).__name__)
    return names


def _deploy(shape: Shape, runtime: SimulatedRuntime) -> dict:
    """Run one 12-task job on ``shape``; return what the tests observe."""
    cluster = testbed_small(runtime, workers=WORKERS,
                            streams=RandomStreams(5))
    if shape.config.get("shard_placement") == "dedicated":
        cluster.add_space_hosts(2, FAST_PC)
    framework = AdaptiveClusterFramework(
        runtime, cluster, SumOfSquares(n=TASKS),
        FrameworkConfig(monitoring=False, **shape.config))
    framework.start()
    tenant_master = framework.attach_tenant_master(
        SumOfSquares(n=2), "guest", priority=1)
    items = framework.lookup.lookup({"type": "JavaSpaces"})
    report = framework.run()
    framework.shutdown()
    assert report.complete and report.solution == sum(
        i * i for i in range(TASKS))
    return dict(
        framework=framework,
        items=[(item.service_id, item.service, dict(item.attributes))
               for item in items],
        samples=sorted(
            (name, tuple(sorted(labels.items())))
            for name, labels, _, _ in framework.registry.samples()),
        text=framework.telemetry.prometheus_text(),
        master=_client_stack(framework.master.space),
        tenant_master=_client_stack(tenant_master.space),
        workers=[_client_stack(host._proxy)
                 for host in framework.worker_hosts],
    )


@functools.lru_cache(maxsize=None)
def _observed(shape_name: str) -> dict:
    """One simulated deployment per shape, shared by the tests below."""
    runtime = SimulatedRuntime()
    try:
        return run_in_sim(runtime, lambda: _deploy(SHAPES[shape_name], runtime))
    finally:
        runtime.shutdown()


@pytest.fixture(params=sorted(SHAPES))
def deployed(request):
    return SHAPES[request.param], _observed(request.param)


def _suffixes(shape: Shape) -> list[str]:
    if not shape.sharded:
        return [""]
    return [f":shard{i}" for i in range(len(shape.hosts))]


def _label_sets(shape: Shape) -> list[tuple]:
    if not shape.sharded:
        return [()]
    return [(("shard", str(i)),) for i in range(len(shape.hosts))]


def _expected_samples(shape: Shape) -> list[tuple[str, tuple]]:
    samples = [(name, labels) for name in shape.per_shard
               for labels in _label_sets(shape)]
    samples += [(name, ()) for name in shape.unlabeled]
    if shape.tenant is not None:
        samples += [(name, (("tenant", shape.tenant),)) for name in TENANT]
    if shape.checkpoints:
        samples += [(name, (("app", APP),)) for name in CHECKPOINT]
    return sorted(samples)


def test_space_and_service_names_and_addresses(deployed):
    shape, seen = deployed
    framework = seen["framework"]
    suffixes = _suffixes(shape)
    if shape.sharded:
        primaries = [Address(host, 4255 + 2 * i)
                     for i, host in enumerate(shape.hosts)]
    else:
        primaries = [Address("master", 4155)]
    standbys = [Address("master", address.port + 1) for address in primaries]

    assert [space.name for space in framework.spaces] == [
        f"space:{APP}{suffix}" for suffix in suffixes]
    assert framework.shard_addresses == primaries
    assert framework.shard_standby_addresses == standbys
    assert [standby.space.name for standby in framework.standbys] == (
        [f"space-standby:{APP}{suffix}" for suffix in suffixes]
        if shape.standby else [])
    assert [standby.address for standby in framework.standbys] == (
        standbys if shape.standby else [])

    expected_items = []
    for i, (suffix, address) in enumerate(zip(suffixes, primaries)):
        attributes = {"type": "JavaSpaces", "app": APP}
        if shape.sharded:
            attributes["shard"] = str(i)
        if shape.standby:
            attributes["epoch"] = 0
        expected_items.append(
            (f"javaspaces:{APP}{suffix}", address, attributes))
    assert seen["items"] == expected_items


def test_registry_instruments_and_label_sets(deployed):
    shape, seen = deployed
    # Fair-share counters appear per tenant as grants happen; only their
    # labeling is part of the wiring.
    fair = [s for s in seen["samples"] if s[0].startswith("space.fair.")]
    rest = [s for s in seen["samples"] if not s[0].startswith("space.fair.")]
    assert rest == _expected_samples(shape)
    assert bool(fair) == ("tenant_shares" in shape.config)
    assert {labels for _, labels in fair} <= set(_label_sets(shape))


def test_prometheus_line_order(deployed):
    shape, seen = deployed
    heads = [line.rpartition(" ")[0] for line in seen["text"].splitlines()
             if not line.startswith("#") and "_bucket{" not in line
             and not line.startswith("space_fair_")]

    def head(name: str, labels: tuple) -> list[str]:
        mangled = name.replace(".", "_")
        inner = ",".join(f'{key}="{value}"' for key, value in labels)
        label_str = "{" + inner + "}" if labels else ""
        if name == "task.latency_ms":       # the one histogram
            return [f"{mangled}_sum{label_str}", f"{mangled}_count{label_str}"]
        return [mangled + label_str]

    # Names sorted; within a name, shard order (sorted() is stable on
    # the shard-ordered label sets because it compares the name first
    # and single-digit shard strings sort numerically).
    expected = [line for name, labels in _expected_samples(shape)
                for line in head(name, labels)]
    assert heads == expected


def test_each_party_holds_the_expected_space_client(deployed):
    shape, seen = deployed
    assert seen["master"] == shape.master
    assert seen["tenant_master"] == shape.tenant_master
    assert seen["workers"] == [shape.worker] * WORKERS
