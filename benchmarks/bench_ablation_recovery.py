"""Ablation — two recovery mechanisms for lost tasks.

A worker crash strands its in-flight task.  Two cures, from two lineages:

* **transactional takes** (JavaSpaces, §3): the dropped connection aborts
  the transaction and the task entry reappears immediately;
* **eager scheduling** (Charlotte, Table 1): the master re-writes the
  task after a straggler timeout, racing a replica.

Same crash scenario, both mechanisms; transactions recover faster (no
timeout to wait out), eager scheduling needs no transaction machinery.
"""

from __future__ import annotations

from benchmarks._shared import run_once
from repro.core.framework import AdaptiveClusterFramework, FrameworkConfig
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small
from repro.sim.rng import RandomStreams
from tests.core.toyapp import SumOfSquares

STRAGGLER_TIMEOUT_MS = 3_000.0


def run_recovery(mechanism: str):
    def body(runtime):
        cluster = testbed_small(runtime, workers=3, streams=RandomStreams(0))
        config = FrameworkConfig(
            transactional_takes=(mechanism == "transactions"),
            straggler_timeout_ms=(STRAGGLER_TIMEOUT_MS if mechanism == "eager"
                                  else None),
        )
        framework = AdaptiveClusterFramework(
            runtime, cluster, SumOfSquares(n=30, task_cost=400.0), config
        )

        def killer():
            runtime.sleep(1_200.0)
            framework.worker_hosts[0].crash()

        framework.start()
        runtime.spawn(killer, name="killer")
        report = framework.run()
        framework.shutdown()
        return report.parallel_ms, report.solution

    return run_simulation(body)


def test_ablation_recovery_mechanisms(benchmark):
    (txn_ms, txn_solution), (eager_ms, eager_solution) = run_once(
        benchmark, lambda: (run_recovery("transactions"), run_recovery("eager"))
    )
    print()
    print(f"transactional takes : {txn_ms:>8.0f} ms")
    print(f"eager scheduling    : {eager_ms:>8.0f} ms "
          f"(straggler timeout {STRAGGLER_TIMEOUT_MS:.0f} ms)")

    expected = sum(i * i for i in range(30))
    assert txn_solution == eager_solution == expected
    # Transactions recover the lost task immediately; eager scheduling
    # pays the straggler timeout before its replica even starts.
    assert txn_ms < eager_ms
