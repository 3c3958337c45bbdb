"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import gc
import inspect
import signal
import threading
import time
import weakref

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import SimCondition, SimKernel


def test_clock_starts_at_zero():
    with SimKernel() as kernel:
        assert kernel.now() == 0.0


def test_call_later_runs_in_time_order():
    fired = []
    with SimKernel() as kernel:
        kernel.call_later(20.0, lambda: fired.append(("b", kernel.now())))
        kernel.call_later(10.0, lambda: fired.append(("a", kernel.now())))
        kernel.call_later(30.0, lambda: fired.append(("c", kernel.now())))
        kernel.run()
    assert fired == [("a", 10.0), ("b", 20.0), ("c", 30.0)]


def test_same_time_events_fire_in_schedule_order():
    fired = []
    with SimKernel() as kernel:
        for i in range(5):
            kernel.call_later(5.0, lambda i=i: fired.append(i))
        kernel.run()
    assert fired == [0, 1, 2, 3, 4]


def test_cancelled_event_does_not_fire():
    fired = []
    with SimKernel() as kernel:
        handle = kernel.call_later(10.0, lambda: fired.append("x"))
        handle.cancel()
        kernel.run()
    assert fired == []
    assert handle.cancelled


def test_negative_delay_rejected():
    with SimKernel() as kernel:
        with pytest.raises(SimulationError):
            kernel.call_later(-1.0, lambda: None)


def test_process_sleep_advances_virtual_time():
    times = []

    with SimKernel() as kernel:
        def proc():
            times.append(kernel.now())
            kernel.sleep(100.0)
            times.append(kernel.now())
            kernel.sleep(50.0)
            times.append(kernel.now())

        kernel.spawn(proc, name="sleeper")
        kernel.run()
    assert times == [0.0, 100.0, 150.0]


def test_two_processes_interleave_deterministically():
    log = []

    with SimKernel() as kernel:
        def proc(name, period):
            for _ in range(3):
                kernel.sleep(period)
                log.append((name, kernel.now()))

        kernel.spawn(lambda: proc("fast", 10.0), name="fast")
        kernel.spawn(lambda: proc("slow", 25.0), name="slow")
        kernel.run()

    assert log == [
        ("fast", 10.0),
        ("fast", 20.0),
        ("slow", 25.0),
        ("fast", 30.0),
        ("slow", 50.0),
        ("slow", 75.0),
    ]


def test_spawn_from_inside_process():
    log = []

    with SimKernel() as kernel:
        def child():
            log.append(("child", kernel.now()))

        def parent():
            kernel.sleep(10.0)
            kernel.spawn(child, name="child")
            kernel.sleep(10.0)
            log.append(("parent", kernel.now()))

        kernel.spawn(parent, name="parent")
        kernel.run()

    assert log == [("child", 10.0), ("parent", 20.0)]


def test_process_result_recorded():
    with SimKernel() as kernel:
        proc = kernel.spawn(lambda: 42, name="answer")
        kernel.run()
        assert proc.finished
        assert proc.result == 42


def test_process_error_propagates_from_run():
    with SimKernel() as kernel:
        def boom():
            kernel.sleep(5.0)
            raise ValueError("boom")

        kernel.spawn(boom, name="boom")
        with pytest.raises(SimulationError, match="boom"):
            kernel.run()


def test_run_until_limits_clock():
    fired = []
    with SimKernel() as kernel:
        kernel.call_later(10.0, lambda: fired.append(10))
        kernel.call_later(1000.0, lambda: fired.append(1000))
        now = kernel.run(until=100.0)
    assert fired == [10]
    assert now == 100.0


def test_run_until_can_continue():
    fired = []
    with SimKernel() as kernel:
        kernel.call_later(10.0, lambda: fired.append(10))
        kernel.call_later(1000.0, lambda: fired.append(1000))
        kernel.run(until=100.0)
        kernel.run()
    assert fired == [10, 1000]


def test_deadlock_detection():
    with SimKernel() as kernel:
        cond = SimCondition(kernel)

        def stuck():
            with cond:
                cond.wait()

        kernel.spawn(stuck, name="stuck")
        with pytest.raises(DeadlockError):
            kernel.run()


def test_shutdown_unwinds_blocked_processes():
    kernel = SimKernel()
    cond = SimCondition(kernel)
    cleanup = []

    def stuck():
        try:
            with cond:
                cond.wait(timeout=None)
        finally:
            cleanup.append("unwound")

    proc = kernel.spawn(stuck, name="stuck")
    kernel.run(until=10.0)
    assert not proc.finished
    kernel.shutdown()
    assert proc.finished
    assert cleanup == ["unwound"]


def test_shutdown_is_idempotent():
    kernel = SimKernel()
    kernel.spawn(lambda: None, name="noop")
    kernel.run()
    kernel.shutdown()
    kernel.shutdown()


def test_spawn_after_shutdown_rejected():
    kernel = SimKernel()
    kernel.shutdown()
    with pytest.raises(SimulationError):
        kernel.spawn(lambda: None)


def test_sleep_zero_yields_but_does_not_advance():
    with SimKernel() as kernel:
        def proc():
            kernel.sleep(0.0)
            return kernel.now()

        p = kernel.spawn(proc, name="zero")
        kernel.run()
        assert p.result == 0.0


def test_many_processes_scale():
    with SimKernel() as kernel:
        counter = []

        def proc(i):
            kernel.sleep(float(i % 7))
            counter.append(i)

        for i in range(200):
            kernel.spawn(lambda i=i: proc(i), name=f"p{i}")
        kernel.run()
        assert len(counter) == 200


def test_run_until_idle_guards_against_event_storms():
    with SimKernel() as kernel:
        def rearm():
            kernel.call_later(0.0, rearm)  # schedules itself forever

        kernel.call_later(0.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            kernel.run_until_idle(max_events=100)


def test_error_tb_initialized_before_any_failure():
    with SimKernel() as kernel:
        proc = kernel.spawn(lambda: None, name="ok")
        assert proc.error_tb == ""
        kernel.run()
        assert proc.error_tb == ""


def test_failing_process_records_traceback_text():
    kernel = SimKernel()

    def boom():
        raise ValueError("kapow")

    kernel.spawn(boom, name="boom")
    with pytest.raises(SimulationError, match="kapow"):
        kernel.run()
    kernel.shutdown()


def test_same_time_events_fire_in_schedule_order():
    fired = []
    with SimKernel() as kernel:
        for i in range(50):
            kernel.call_later(5.0, lambda i=i: fired.append(i))
        kernel.run()
        assert fired == list(range(50))


def test_event_scheduled_at_current_time_during_drain_runs_same_pass():
    fired = []
    with SimKernel() as kernel:
        def first():
            fired.append("first")
            kernel.call_later(0.0, lambda: fired.append("chained"))

        kernel.call_later(5.0, first)
        kernel.call_later(5.0, lambda: fired.append("second"))
        kernel.run()
        # FIFO within the 5.0 bucket: the chained event lands after
        # everything already scheduled at that time.
        assert fired == ["first", "second", "chained"]


# -- baton-passing dispatch: error paths surface from run() as before ----------


def test_action_raising_inline_on_a_process_thread_surfaces_from_run():
    ran_on = []
    with SimKernel() as kernel:
        def action():
            ran_on.append(threading.get_ident())
            raise ValueError("inline boom")

        def proc():
            kernel.call_later(5.0, action)
            kernel.sleep(10.0)      # this thread drains the queue meanwhile
            return kernel.now()

        p = kernel.spawn(proc, name="sleeper")
        with pytest.raises(ValueError, match="^inline boom$"):
            kernel.run()
        assert ran_on and ran_on[0] != threading.get_ident()
        assert kernel.now() == 5.0 and not p.finished
        kernel.run()                # the timeline resumes where it stopped
        assert p.result == 10.0


def test_process_failure_message_carries_name_repr_and_traceback():
    with SimKernel() as kernel:
        def exploding_helper():
            raise KeyError("kapow")

        def other():
            kernel.sleep(50.0)

        kernel.spawn(other, name="bystander")
        kernel.spawn(exploding_helper, name="boom")
        with pytest.raises(SimulationError) as info:
            kernel.run()
        message = str(info.value)
        assert message.startswith("process 'boom' failed: KeyError('kapow')\n")
        assert "Traceback" in message and "exploding_helper" in message
        assert isinstance(info.value.__cause__, KeyError)
        assert kernel.run() == 50.0         # the bystander is unharmed


def test_max_events_is_enforced_while_processes_hold_the_baton():
    with SimKernel() as kernel:
        def ticker():
            while True:
                kernel.sleep(1.0)

        kernel.spawn(ticker, name="a")
        kernel.spawn(ticker, name="b")
        with pytest.raises(SimulationError, match="max_events=50$"):
            kernel.run(max_events=50)
        assert kernel.now() == 25.0         # 2 starts + 2 wakes per ms; 51st


def test_deadlock_lists_live_processes_in_spawn_order():
    with SimKernel() as kernel:
        cond = SimCondition(kernel)

        def stuck():
            with cond:
                cond.wait()

        for name in ("zeta", "done", "alpha"):
            kernel.spawn(stuck if name != "done" else (lambda: None), name=name)
        with pytest.raises(DeadlockError, match=r"\['zeta', 'alpha'\]"):
            kernel.run()
        assert [p.name for p in kernel.processes] == ["zeta", "alpha"]


def test_run_until_then_run_announces_each_time_once():
    advanced, woke = [], []
    with SimKernel() as kernel:
        kernel.on_advance = advanced.append

        def proc(name, delays):
            for delay in delays:
                kernel.sleep(delay)
                woke.append((name, kernel.now()))

        kernel.spawn(lambda: proc("a", [10.0, 10.0, 10.0]), name="a")
        kernel.spawn(lambda: proc("b", [10.0, 20.0]), name="b")
        assert kernel.run(until=15.0) == 15.0
        assert advanced == [0.0, 10.0]      # two switches inside t=10, one call
        assert kernel.run() == 30.0
    assert advanced == [0.0, 10.0, 20.0, 30.0]
    assert woke == [("a", 10.0), ("b", 10.0), ("a", 20.0), ("b", 30.0),
                    ("a", 30.0)]        # b queued its t=30 wake first


# -- carrier threads: bounded, reused, gone after shutdown ---------------------


def _carrier_threads(kernel):
    """This kernel's own OS threads.  Not ``threading.active_count()``:
    daemon threads of earlier threaded-runtime tests die at any moment."""
    return [carrier.thread for carrier in kernel._carriers]


def test_shutdown_unwinds_sleepers_waiters_unstarted_and_reblocking_unwinds():
    kernel = SimKernel()
    cond = SimCondition(kernel)
    unwound = []

    def sleeper():
        try:
            kernel.sleep(1000.0)
        finally:
            unwound.append("sleeper")

    def waiter():
        try:
            with cond:
                cond.wait()
        finally:
            unwound.append("waiter")

    def reblocker():
        try:
            kernel.sleep(1000.0)
        finally:
            try:
                kernel.sleep(5.0)       # blocks again while being killed
            finally:
                unwound.append("reblocker")

    procs = [kernel.spawn(fn, name=fn.__name__)
             for fn in (sleeper, waiter, reblocker)]
    kernel.run(until=10.0)
    procs.append(kernel.spawn(lambda: unwound.append("never"), name="late"))
    carriers = _carrier_threads(kernel)
    assert len(carriers) == 4 and all(t.is_alive() for t in carriers)
    kernel.shutdown()
    assert all(p.finished and p.error is None for p in procs)
    assert unwound == ["sleeper", "waiter", "reblocker"]
    assert not kernel.processes
    assert not any(t.is_alive() for t in carriers)


def test_ten_thousand_short_processes_share_a_few_carriers():
    threads, done = set(), []
    kernel = SimKernel()

    def child():
        threads.add(threading.get_ident())
        kernel.sleep(1.0)
        done.append(kernel.now())

    def parent():
        threads.add(threading.get_ident())
        for _ in range(10_000 // 8):
            for _ in range(8):
                kernel.spawn(child, name="child")
            kernel.sleep(2.0)       # all eight finish before the next wave

    kernel.spawn(parent, name="parent")
    kernel.run()
    assert len(done) == 10_000
    assert len(threads) <= 9
    assert not kernel.processes
    carriers = _carrier_threads(kernel)
    assert {t.ident for t in carriers} == threads
    assert all(t.is_alive() for t in carriers)
    kernel.shutdown()
    assert not any(t.is_alive() for t in carriers)


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="POSIX only")
def test_interrupted_run_brings_the_baton_home_before_raising():
    """Ctrl-C lands in the caller of ``run()`` while a carrier holds the
    baton; the simulation must be parked again before anyone tears down."""
    kernel = SimKernel()
    main = threading.get_ident()

    def ticker():
        kernel.sleep(1.0)
        signal.pthread_kill(main, signal.SIGINT)
        while True:
            kernel.sleep(1.0)

    proc = kernel.spawn(ticker, name="ticker")
    with pytest.raises(KeyboardInterrupt):
        kernel.run()
    stopped_at = kernel.now()
    time.sleep(0.05)
    assert kernel.now() == stopped_at and not proc.finished
    carriers = _carrier_threads(kernel)
    kernel.shutdown()
    assert proc.finished and not any(t.is_alive() for t in carriers)


def test_finished_process_drops_its_closure():
    class Payload:
        pass

    with SimKernel() as kernel:
        payload = Payload()
        alive = weakref.ref(payload)
        proc = kernel.spawn(lambda payload=payload: None, name="holder")
        del payload
        kernel.run()
        gc.collect()
        assert proc.finished and alive() is None


def test_same_instant_spawn_from_a_finishing_process_reuses_its_thread():
    threads = []
    with SimKernel() as kernel:
        def second():
            threads.append(threading.get_ident())

        def first():
            threads.append(threading.get_ident())
            kernel.call_later(0.0, lambda: kernel.spawn(second, name="second"))

        kernel.spawn(first, name="first")
        kernel.run()
    assert len(threads) == 2 and threads[0] == threads[1]


def test_traced_boundaries_keep_their_names_and_positional_signatures():
    """``benchmarks/suite/tracing.py`` wraps these callables by name from
    the outside and reads ``spawn``'s function / ``call_later``'s action by
    position; a rename would silently empty the ``sim`` layer."""
    def positional(fn):
        return list(inspect.signature(fn).parameters)

    assert positional(SimKernel.spawn) == ["self", "fn", "name"]
    assert positional(SimKernel.call_later) == ["self", "delay_ms", "action"]
    assert positional(SimKernel.sleep) == ["self", "delay_ms"]
    assert positional(SimKernel.run)[:2] == ["self", "until"]
    assert positional(SimKernel.run_until_idle)[0] == "self"
    assert positional(SimKernel.shutdown) == ["self"]
    assert positional(SimCondition.wait) == ["self", "timeout"]
    assert positional(SimCondition.notify) == ["self", "n"]
