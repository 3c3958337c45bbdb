"""Experiment wiring: testbeds and calibrated applications.

The paper's testbeds (§5): ray tracing and pre-fetching run on five
800 MHz/256 MB PCs; option pricing on thirteen 300 MHz/64 MB PCs; the
master is always an 800 MHz/256 MB machine ("due to the high memory
requirements of the Jini infrastructure").

Calibrated cost-model constants live on the application classes
(:class:`~repro.apps.options.OptionPricingApplication` et al.); this
module only decides *which* application/cluster pairs each experiment
uses, so every bench pulls identical wiring.
"""

from __future__ import annotations

from repro.apps.options import OptionPricingApplication
from repro.apps.prefetch import PrefetchApplication
from repro.apps.raytrace import RayTracingApplication
from repro.node.cluster import Cluster, testbed_large, testbed_small
from repro.runtime.base import Runtime
from repro.sim.rng import RandomStreams

__all__ = [
    "make_options_app",
    "make_raytrace_app",
    "make_prefetch_app",
    "options_cluster",
    "raytrace_cluster",
    "prefetch_cluster",
    "APP_FACTORIES",
    "CLUSTER_FACTORIES",
    "MAX_WORKERS",
]

#: Sweep limits per application (the paper's cluster sizes).
MAX_WORKERS = {"option-pricing": 13, "ray-tracing": 5, "web-prefetch": 5}


def make_options_app() -> OptionPricingApplication:
    """10 000 simulations, 50 blocks → 100 high/low subtasks (§5.1.1)."""
    return OptionPricingApplication()


def make_raytrace_app() -> RayTracingApplication:
    """600×600 image, 24 strips of 25 rows (§5.1.2)."""
    return RayTracingApplication()


def make_prefetch_app() -> PrefetchApplication:
    """500-page cluster, strips of 20 → 25 tasks (§5.1.3)."""
    return PrefetchApplication()


def options_cluster(runtime: Runtime, workers: int,
                    streams: RandomStreams) -> Cluster:
    """The option-pricing testbed: thirteen 300 MHz PCs (§5)."""
    return testbed_large(runtime, workers=workers, streams=streams)


def raytrace_cluster(runtime: Runtime, workers: int,
                     streams: RandomStreams) -> Cluster:
    """The ray-tracing testbed: five 800 MHz PCs (§5)."""
    return testbed_small(runtime, workers=workers, streams=streams)


def prefetch_cluster(runtime: Runtime, workers: int,
                     streams: RandomStreams) -> Cluster:
    """The pre-fetching testbed: five 800 MHz PCs (§5)."""
    return testbed_small(runtime, workers=workers, streams=streams)


APP_FACTORIES = {
    "option-pricing": make_options_app,
    "ray-tracing": make_raytrace_app,
    "web-prefetch": make_prefetch_app,
}

CLUSTER_FACTORIES = {
    "option-pricing": options_cluster,
    "ray-tracing": raytrace_cluster,
    "web-prefetch": prefetch_cluster,
}
