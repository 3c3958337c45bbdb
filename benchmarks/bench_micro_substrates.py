"""Microbenchmarks of the substrates (real wall-clock throughput).

Unlike the figure benches (which regenerate deterministic virtual-time
experiments), these measure the Python implementation itself: tuple-space
operation throughput, SNMP codec speed, ray-tracing pixel rate, and the
simulation kernel's event rate.  Useful for catching performance
regressions in the substrate code.
"""

from __future__ import annotations

import numpy as np

from repro.apps.raytrace import Camera, default_scene, render_rows
from repro.runtime import SimulatedRuntime
from repro.sim import SimKernel
from repro.snmp import GetResponse, Oid
from repro.snmp.pdu import decode_message, encode_message
from repro.tuplespace import JavaSpace
from tests.tuplespace.entries import TaskEntry


def test_micro_space_write_take_throughput(benchmark):
    """Write+take cycles through the space (in-process, no network)."""
    runtime = SimulatedRuntime()
    space = JavaSpace(runtime)

    def cycle():
        def body():
            for i in range(200):
                space.write(TaskEntry("bench", i, i))
            for _ in range(200):
                space.take(TaskEntry(), timeout_ms=0.0)

        proc = runtime.kernel.spawn(body, name="bench")
        runtime.kernel.run_until_idle()
        assert proc.finished

    benchmark.pedantic(cycle, rounds=5, iterations=1)
    runtime.shutdown()


def test_micro_space_template_selectivity(benchmark):
    """Selective takes against a 1000-entry store."""
    runtime = SimulatedRuntime()
    space = JavaSpace(runtime)

    def setup_and_query():
        def body():
            for i in range(1000):
                space.write(TaskEntry(f"app{i % 10}", i, None))
            for i in range(100):
                assert space.take(TaskEntry(app="app7"), timeout_ms=0.0) is not None
            # Drain the rest so rounds are independent.
            while space.take_if_exists(TaskEntry()) is not None:
                pass

        proc = runtime.kernel.spawn(body, name="bench")
        runtime.kernel.run_until_idle()
        assert proc.finished

    benchmark.pedantic(setup_and_query, rounds=3, iterations=1)
    runtime.shutdown()


def test_micro_snmp_codec(benchmark):
    pdu = GetResponse(
        request_id=42,
        varbinds=[(Oid(f"1.3.6.1.2.1.25.3.3.1.2.{i}"), i * 7) for i in range(10)],
        community="cluster",
    )

    def round_trips():
        for _ in range(500):
            decode_message(encode_message(pdu))

    benchmark.pedantic(round_trips, rounds=5, iterations=1)


def test_micro_raytracer_pixel_rate(benchmark):
    scene, camera = default_scene(), Camera()

    def strip():
        image = render_rows(scene, camera, 0, 25, 600, 600)
        assert image.shape == (25, 600, 3)

    benchmark.pedantic(strip, rounds=5, iterations=1)


def test_micro_kernel_event_rate(benchmark):
    """Pure event-loop throughput (no process handoffs)."""

    def burst():
        kernel = SimKernel()
        counter = {"n": 0}

        def tick():
            counter["n"] += 1

        for i in range(5_000):
            kernel.call_later(float(i % 97), tick)
        kernel.run()
        assert counter["n"] == 5_000
        kernel.shutdown()

    benchmark.pedantic(burst, rounds=3, iterations=1)


def test_micro_contention_write_take(benchmark):
    """One writer feeding 16 takers parked on distinct templates.

    The interesting metric (asserted, not just timed): targeted wait
    queues wake only the taker whose template matches, so wakeups stay
    O(writes) instead of O(writes * takers) as under a global notify_all.
    """
    n_takers = 16
    writes_per_taker = 20

    def contended_round():
        runtime = SimulatedRuntime()
        space = JavaSpace(runtime)
        taken = []

        def taker(t):
            template = TaskEntry(app=f"app{t}")
            for _ in range(writes_per_taker):
                got = space.take(template, timeout_ms=100_000.0)
                assert got is not None
                taken.append(got.task_id)

        def writer():
            runtime.sleep(10.0)  # all takers parked
            for i in range(writes_per_taker):
                for t in range(n_takers):
                    space.write(TaskEntry(f"app{t}", i, None))

        def root():
            for t in range(n_takers):
                runtime.spawn(lambda t=t: taker(t), name=f"taker{t}")
            runtime.spawn(writer, name="writer")

        runtime.kernel.spawn(root, name="root")
        runtime.kernel.run_until_idle()
        assert len(taken) == n_takers * writes_per_taker
        # Each write wakes exactly the one matching waiter.
        wakeups_per_write = space.stats["wakeups"] / (n_takers * writes_per_taker)
        assert wakeups_per_write <= 1.0 + 1e-9
        runtime.shutdown()

    benchmark.pedantic(contended_round, rounds=3, iterations=1)


def test_micro_process_handoff_rate(benchmark):
    """Thread-backed process context switches per second."""

    def ping_pong():
        kernel = SimKernel()

        def proc():
            for _ in range(250):
                kernel.sleep(1.0)

        # Same period: every wake switches to the other process's thread.
        kernel.spawn(proc, name="ping")
        kernel.spawn(proc, name="pong")
        kernel.run()
        kernel.shutdown()

    benchmark.pedantic(ping_pong, rounds=3, iterations=1)
