"""Schedule equivalence: the baton-passing kernel against a reference.

Hypothesis generates small programs of ``sleep`` / ``spawn`` /
``wait(timeout)`` / ``notify`` / ``notify_all`` / ``call_later`` /
``cancel`` for 1–6 processes.  One interpreter (:func:`body`, a generator
that yields its blocking requests) runs each program twice: on the real
:class:`SimKernel`, where whichever OS thread blocks dispatches the next
event, and on :class:`Reference`, a single-threaded scheduler over a plain
``(time, seq)`` heap.  The ``(virtual time, actor, step, outcome)`` logs
must be equal, whoever's thread ran each event.
"""

from __future__ import annotations

import heapq
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.sim import SimCondition, SimKernel

CONDITIONS = 2


# -- the reference: one thread, generators, a (time, seq) heap -----------------


class _Handle:
    def __init__(self, action):
        self.action = action
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class Reference:
    def __init__(self):
        self.time = 0.0
        self.seq = 0
        self.queue = []
        self.waiters = [deque() for _ in range(CONDITIONS)]

    def now(self):
        return self.time

    def call_later(self, delay, action):
        handle = _Handle(action)
        heapq.heappush(self.queue, (self.time + delay, self.seq, handle))
        self.seq += 1
        return handle

    def spawn(self, name, program, log):
        process = body(self, name, program, log)
        self.call_later(0.0, lambda: self._step(process, None))

    def _step(self, process, value):
        try:
            request = process.send(value)
        except StopIteration:
            return
        if request[0] == "sleep":
            self.call_later(request[1], lambda: self._step(process, None))
            return
        _, cond, timeout = request
        waiter = {"woken": False, "process": process}
        self.waiters[cond].append(waiter)
        if timeout is not None:
            def on_timeout():
                if not waiter["woken"]:
                    waiter["woken"] = True
                    self.waiters[cond].remove(waiter)
                    self._step(process, False)

            self.call_later(timeout, on_timeout)

    def notify(self, cond, n):
        woken = 0
        while self.waiters[cond] and woken < n:
            waiter = self.waiters[cond].popleft()
            waiter["woken"] = True
            self.call_later(
                0.0, lambda p=waiter["process"]: self._step(p, True))
            woken += 1

    def notify_all(self, cond):
        self.notify(cond, len(self.waiters[cond]))

    def run(self):
        while self.queue:
            self.time, _, handle = heapq.heappop(self.queue)
            if not handle.cancelled:
                handle.action()


# -- the real kernel behind the same five calls --------------------------------


class Kernel:
    def __init__(self, kernel):
        self.kernel = kernel
        self.now = kernel.now
        self.call_later = kernel.call_later
        self.conditions = [SimCondition(kernel) for _ in range(CONDITIONS)]

    def spawn(self, name, program, log):
        self.kernel.spawn(
            lambda: self._drive(body(self, name, program, log)), name=name)

    def _drive(self, process):
        value = None
        while True:
            try:
                request = process.send(value)
            except StopIteration:
                return
            if request[0] == "sleep":
                value = self.kernel.sleep(request[1])
            else:
                with self.conditions[request[1]] as cond:
                    value = cond.wait(request[2])

    def notify(self, cond, n):
        with self.conditions[cond] as condition:
            condition.notify(n)

    def notify_all(self, cond):
        with self.conditions[cond] as condition:
            condition.notify_all()

    def run(self):
        self.kernel.run_until_idle()    # waits without timeout may never end


# -- programs --------------------------------------------------------------------


def body(api, name, program, log):
    """Interpret ``program`` as process ``name``; yield what blocks."""
    handles = []
    for step, op in enumerate(program):
        kind, outcome = op[0], None
        if kind == "sleep":
            yield op
        elif kind == "wait":
            outcome = yield op
        elif kind == "notify":
            api.notify(op[1], op[2])
        elif kind == "notify_all":
            api.notify_all(op[1])
        elif kind == "spawn":
            api.spawn(f"{name}.{step}", op[1], log)
        elif kind == "call_later":
            handles.append(api.call_later(
                op[1], lambda op=op, step=step: act(api, f"{name}@{step}",
                                                    op[2], log)))
        elif handles:                                   # cancel
            handles[op[1] % len(handles)].cancel()
        log.append((api.now(), name, step, kind, outcome))
    log.append((api.now(), name, "end"))


def act(api, name, action, log):
    """A timer action: runs outside any process, must not block."""
    log.append((api.now(), name, action[0]))
    if action[0] == "notify_all":
        api.notify_all(action[1])
    elif action[0] == "spawn":
        api.spawn(f"{name}.child", action[1], log)


_delay = st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0])
_cond = st.integers(0, CONDITIONS - 1)
_leaf_ops = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("wait"), _cond,
              st.one_of(st.none(), st.just(0.0), _delay)),
    st.tuples(st.just("notify"), _cond, st.integers(1, 2)),
    st.tuples(st.just("notify_all"), _cond),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
)


def _programs(ops, max_size):
    return st.lists(ops, max_size=max_size)


def _ops_with_children(children):
    action = st.one_of(
        st.tuples(st.just("log")),
        st.tuples(st.just("notify_all"), _cond),
        st.tuples(st.just("spawn"), children),      # spawn from an action
    )
    return st.one_of(
        _leaf_ops,
        st.tuples(st.just("spawn"), children),
        st.tuples(st.just("call_later"), _delay, action),
    )


_grandchildren = _programs(_leaf_ops, 3)
_children = _programs(_ops_with_children(_grandchildren), 4)
_roots = st.lists(_programs(_ops_with_children(_children), 6),
                  min_size=1, max_size=6)


def _run(api, roots):
    log = []
    for index, program in enumerate(roots):
        api.spawn(f"p{index}", program, log)
    api.run()
    return log, api.now()


@settings(max_examples=200, deadline=None)
@given(_roots)
def test_kernel_schedule_matches_the_reference(roots):
    expected = _run(Reference(), roots)
    with SimKernel() as kernel:
        assert _run(Kernel(kernel), roots) == expected


def test_the_named_corner_cases_agree():
    """``sleep(0)``, self-wake, same-instant spawn from an action, and a
    process finishing while it is the only runnable one — spelled out, so
    they are covered whatever Hypothesis happens to draw."""
    roots = [
        [("sleep", 0.0), ("sleep", 2.0),                # alone: wakes itself
         ("call_later", 0.0, ("spawn", [("sleep", 0.0), ("notify_all", 0)])),
         ("wait", 0, 5.0)],
        [("wait", 0, None)],                            # never notified at t=0
        [("call_later", 1.0, ("log",)), ("cancel", 0), ("wait", 1, 0.0)],
        [],                                             # finishes at once
    ]
    expected = _run(Reference(), roots)
    with SimKernel() as kernel:
        assert _run(Kernel(kernel), roots) == expected
    assert expected[1] == 7.0       # the clock visits the dead t=7 timeout
    assert (2.0, "p0", 3, "wait", True) in expected[0]
    assert (2.0, "p1", 0, "wait", True) in expected[0]
