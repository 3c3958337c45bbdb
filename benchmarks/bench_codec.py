"""Codec microbenchmark: entry frames against a whole-object pickle.

Measures encode and decode ops/second and bytes/entry for the entry
shapes the framework actually ships — a selective template, a seeded
task, and a payload-bearing result — as entry frames and, for
reference, as ``serialize`` (pickle) of the same object: the ``pickle``
rows are that reference, not a path the system takes.  Plus the WAL
commit-record frame path (``record_frame``) and a field-slice read
(``read_fields``: what the space pays to route an entry) against the
full decode it replaced.  Wall-clock only; nothing is written to
BENCH_micro.json (run_micro carries the gated cells).

Usage::

    PYTHONPATH=src python benchmarks/bench_codec.py [--rounds N] [-n OPS]
"""

from __future__ import annotations

import argparse
import time

from repro.core.entries import ResultEntry, TaskEntry
from repro.tuplespace.wal import CommitRecord, op_write, record_frame
from repro.util.codec import decode_any, encode_entry, read_fields
from repro.util.serialization import deserialize, serialize

SHAPES = {
    "template": TaskEntry(app_id="bench"),
    "task": TaskEntry(app_id="bench", task_id=7,
                      payload={"region": (0, 75, 600, 100)},
                      trace="bench/7", tenant="t00", priority=1),
    "result": ResultEntry(app_id="bench", task_id=7,
                          payload=[600 * y for y in range(25)],
                          worker="worker1", compute_ms=2500.0,
                          trace="bench/7", tenant="t00", priority=1),
}


def _best(fn, n: int, rounds: int) -> float:
    best = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            best = max(best, n / elapsed)
    return best


def run(n: int, rounds: int) -> None:
    header = (f"{'shape':>10} {'codec':>8} {'enc ops/s':>12} "
              f"{'dec ops/s':>12} {'bytes':>6}")
    print(header)
    print("-" * len(header))
    for name, entry in SHAPES.items():
        for codec, enc, dec in (
            ("compact", encode_entry, decode_any),
            ("pickle", serialize, deserialize),
        ):
            data = enc(entry)
            enc_rate = _best(lambda: enc(entry), n, rounds)
            dec_rate = _best(lambda: dec(data), n, rounds)
            print(f"{name:>10} {codec:>8} {enc_rate:>12.0f} "
                  f"{dec_rate:>12.0f} {len(data):>6}")

    # WAL frame path: one-write commit records, the group-commit shape.
    record = CommitRecord(
        lsn=1, epoch=3,
        ops=(op_write(7, encode_entry(SHAPES["task"]), float("inf")),))

    def frame():
        # record_frame caches on the instance; strip the cache so the
        # benchmark measures encoding, not a dict lookup.
        record.__dict__.pop("_frame", None)
        return record_frame(record)

    rate = _best(frame, n, rounds)
    print(f"{'wal-frame':>10} {'compact':>8} {rate:>12.0f} {'-':>12} "
          f"{len(frame()):>6}")

    # Field-slice read: one field of a seven-field TaskEntry whose
    # payload is a container, vs decoding the entry to look at it.
    data = encode_entry(SHAPES["task"])
    for label, fn in (
        ("1 of 7", lambda: read_fields(data, ("app_id",))),
        ("decode", lambda: decode_any(data)),
    ):
        rate = _best(fn, n, rounds)
        print(f"{'read':>10} {label:>8} {'-':>12} {rate:>12.0f} "
              f"{len(data):>6}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=20_000,
                        help="ops per timing round")
    parser.add_argument("--rounds", type=int, default=3,
                        help="take the best of N rounds")
    args = parser.parse_args()
    run(args.n, args.rounds)


if __name__ == "__main__":
    main()
