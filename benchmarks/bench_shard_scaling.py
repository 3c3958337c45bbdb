"""Shard-count sweep — e2e throughput of the sharded tuple space.

The egress-bound strip job (fat results, tiny tasks) on 16 workers,
with the space partitioned over 1–16 dedicated server machines.  The
single space's host uplink bounds the job at 1 shard; consistent-hash
partitioning spreads the result entries — and so the drain traffic —
over N links.  All numbers are virtual-time (modelled network), so the
sweep is deterministic and the speedups are noise-free.
"""

from __future__ import annotations

from benchmarks._shared import run_once
from repro.experiments.scalability import (
    format_shard_table,
    shard_scaling_experiment,
)

SHARD_COUNTS = [1, 2, 4, 8, 16]

#: Minimum speedup over the 1-shard baseline per sweep point: 16 shards
#: must carry at least 4x the 1-shard throughput, and the intermediate
#: points pin the *shape* (scaling must not plateau before 8 shards).
SPEEDUP_FLOORS = {2: 1.4, 4: 2.2, 8: 3.5, 16: 4.0}


def test_shard_scaling(benchmark):
    rows = run_once(benchmark, lambda: shard_scaling_experiment(SHARD_COUNTS))
    print()
    print(format_shard_table(rows))

    by_shards = {row.shards: row for row in rows}
    base = by_shards[1].tasks_per_s
    assert base > 0

    # Throughput must rise monotonically with the shard count.
    rates = [row.tasks_per_s for row in rows]
    assert rates == sorted(rates), f"non-monotonic scaling: {rates}"

    for shards, floor in SPEEDUP_FLOORS.items():
        speedup = by_shards[shards].tasks_per_s / base
        assert speedup >= floor, (
            f"{shards} shards: {speedup:.2f}x below the {floor}x floor")
