"""Concurrent monitors poll through their own SNMP sessions.

All monitors of one network management module used to share a single
manager socket, so a monitor waiting for its reply could consume (and
discard) another monitor's.  On a lossless network every poll must be
answered first time.
"""

from __future__ import annotations

from repro.core.framework import FrameworkConfig
from repro.experiments.calibration import make_options_app, options_cluster
from repro.experiments.harness import run_simulation
from repro.experiments.scalability import run_framework_once
from repro.sim import RandomStreams


def _monitored_option_pricing(workers: int):
    def body(runtime):
        cluster = options_cluster(runtime, workers=workers,
                                  streams=RandomStreams(0))
        _, framework = run_framework_once(
            runtime, cluster, make_options_app(),
            FrameworkConfig(compute_real=False))
        return (dict(framework.netmgmt.stats),
                dict(framework.netmgmt.snmp.stats))

    return run_simulation(body)


def test_concurrent_monitors_never_lose_a_reply():
    netmgmt, snmp = _monitored_option_pricing(workers=6)
    assert netmgmt["polls"] > 6 * 10
    assert netmgmt["poll_failures"] == 0
    assert snmp["retries"] == 0
    assert snmp["timeouts"] == 0
    assert snmp["requests"] == netmgmt["polls"]
