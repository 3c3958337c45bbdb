"""Manager/agent interaction over the simulated network."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionClosedError, NoSuchOidError, TimeoutError_
from repro.net import Address, LatencyModel, Network
from repro.sim import RandomStreams
from repro.snmp import HOST_RESOURCES, Mib, Oid, SnmpAgent, SnmpManager


@pytest.fixture()
def env(rt):
    net = Network(rt, latency=LatencyModel(base_ms=0.5, jitter_ms=0.0, per_kb_ms=0.0))
    mib = Mib()
    mib.register(HOST_RESOURCES.SYS_NAME, "worker-3")
    mib.register(HOST_RESOURCES.HR_PROCESSOR_LOAD, lambda: 37)
    mib.register(HOST_RESOURCES.EXTERNAL_LOAD, lambda: 12)
    mib.register(Oid("1.3.6.1.4.1.20010.9.0"), 0, writable=True)
    agent = SnmpAgent(rt, net, "worker3", mib, community="cluster")
    agent.start()
    manager = SnmpManager(rt, net, "manager", community="cluster", timeout_ms=50.0)
    return net, agent, manager


def run(rt, fn):
    proc = rt.kernel.spawn(fn, name="test-root")
    rt.kernel.run_until_idle()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_get_single_oid(rt, env):
    _, _, manager = env

    def proc():
        return manager.get_one("worker3", HOST_RESOURCES.HR_PROCESSOR_LOAD)

    assert run(rt, proc) == 37


def test_get_multiple_oids_in_one_pdu(rt, env):
    _, _, manager = env

    def proc():
        return manager.get(
            "worker3", [HOST_RESOURCES.SYS_NAME, HOST_RESOURCES.EXTERNAL_LOAD]
        )

    values = run(rt, proc)
    assert values[HOST_RESOURCES.SYS_NAME] == "worker-3"
    assert values[HOST_RESOURCES.EXTERNAL_LOAD] == 12


def test_get_unknown_oid_raises(rt, env):
    _, _, manager = env

    def proc():
        with pytest.raises(NoSuchOidError):
            manager.get_one("worker3", Oid("1.3.6.1.99.0"))
        return True

    assert run(rt, proc)


def test_walk_subtree(rt, env):
    _, _, manager = env

    def proc():
        return manager.walk("worker3", Oid("1.3.6.1.2.1"))

    results = run(rt, proc)
    oids = [str(oid) for oid, _ in results]
    assert oids == sorted(oids)
    assert str(HOST_RESOURCES.SYS_NAME) in oids
    assert str(HOST_RESOURCES.HR_PROCESSOR_LOAD) in oids
    # enterprise OIDs are outside the 1.3.6.1.2.1 subtree
    assert str(HOST_RESOURCES.EXTERNAL_LOAD) not in oids


def test_set_writable_oid(rt, env):
    _, agent, manager = env
    target = Oid("1.3.6.1.4.1.20010.9.0")

    def proc():
        manager.set("worker3", target, 99)
        return manager.get_one("worker3", target)

    assert run(rt, proc) == 99


def test_wrong_community_times_out(rt, env):
    net, agent, _ = env
    intruder = SnmpManager(rt, net, "intruder", community="wrong",
                           timeout_ms=20.0, retries=1)

    def proc():
        with pytest.raises(TimeoutError_):
            intruder.get_one("worker3", HOST_RESOURCES.SYS_NAME)
        return True

    assert run(rt, proc)
    assert agent.stats["bad_community"] == 2  # initial + 1 retry


def test_no_agent_times_out_after_retries(rt, env):
    _, _, manager = env

    def proc():
        t0 = rt.now()
        with pytest.raises(TimeoutError_):
            manager.get_one("ghost", HOST_RESOURCES.SYS_NAME)
        return rt.now() - t0

    elapsed = run(rt, proc)
    assert elapsed >= 3 * 50.0  # 1 try + 2 retries, 50 ms timeout each
    assert manager.stats["timeouts"] == 1
    assert manager.stats["retries"] == 2


def test_manager_survives_lossy_network(rt):
    lossy = Network(
        rt,
        latency=LatencyModel(base_ms=0.5, jitter_ms=0.0, loss_probability=0.45),
        rng=RandomStreams(11).stream("net"),
    )
    mib = Mib()
    mib.register(HOST_RESOURCES.HR_PROCESSOR_LOAD, 55)
    SnmpAgent(rt, lossy, "w", mib).start()
    manager = SnmpManager(rt, lossy, "m", timeout_ms=30.0, retries=8)

    def proc():
        return manager.get_one("w", HOST_RESOURCES.HR_PROCESSOR_LOAD)

    assert run(rt, proc) == 55


def test_live_value_sampled_at_each_poll(rt, env):
    net, agent, manager = env
    samples = iter([10, 60, 90])
    agent.mib.register(HOST_RESOURCES.TOTAL_LOAD, lambda: next(samples))

    def proc():
        return [manager.get_one("worker3", HOST_RESOURCES.TOTAL_LOAD) for _ in range(3)]

    assert run(rt, proc) == [10, 60, 90]


def test_agent_stop_releases_port(rt, env):
    net, agent, _ = env

    def proc():
        agent.stop()
        net.bind_datagram(Address("worker3", 161))  # port free again
        return True

    assert run(rt, proc)


def test_shared_manager_demultiplexes_concurrent_replies(rt, env):
    """Two pollers on one manager: each reply reaches its own request
    (matched by id) instead of whichever waiter reads the socket first."""
    net, _, manager = env
    mib = Mib()
    mib.register(HOST_RESOURCES.HR_PROCESSOR_LOAD, lambda: 81)
    SnmpAgent(rt, net, "worker4", mib, community="cluster").start()
    # worker3's poller waits first, but worker4 answers first.
    net.slow("worker3", 4.0)
    answers = {}

    def poll(host):
        answers[host] = manager.get_one(host, HOST_RESOURCES.HR_PROCESSOR_LOAD)

    def proc():
        pollers = [rt.spawn(lambda h=h: poll(h), name=f"poller:{h}")
                   for h in ("worker3", "worker4")]
        for poller in pollers:
            poller.join()
        return True

    assert run(rt, proc)
    assert answers == {"worker3": 37, "worker4": 81}
    assert manager.stats == {"requests": 2, "retries": 0, "timeouts": 0}


def test_fetch_answers_by_callback(rt, env):
    _, _, manager = env
    outcomes = []
    manager.fetch("worker3", HOST_RESOURCES.EXTERNAL_LOAD,
                  lambda value, error: outcomes.append((value, error)))
    manager.fetch("worker3", Oid("1.3.6.1.99.0"),
                  lambda value, error: outcomes.append((value, type(error))))
    rt.kernel.run_until_idle()
    assert outcomes == [(12, None), (None, NoSuchOidError)]


def test_closing_the_manager_fails_requests_in_flight(rt, env):
    """A closed served socket ends its callback quietly and hands every
    pending request a ConnectionClosedError instead of a timeout."""
    _, _, manager = env
    outcomes = []
    manager.fetch("ghost", HOST_RESOURCES.SYS_NAME,
                  lambda value, error: outcomes.append(type(error)))
    manager.close()
    rt.kernel.run_until_idle()
    assert outcomes == [ConnectionClosedError]
    assert manager.stats["timeouts"] == 0


def test_agent_stop_with_a_request_in_flight(rt, env):
    """The request reaches a stopped agent: nothing raises, the poller
    sees a timeout after its retries."""
    _, agent, manager = env

    def proc():
        rt.call_later(0.1, agent.stop)      # before the request lands
        with pytest.raises(TimeoutError_):
            manager.get_one("worker3", HOST_RESOURCES.SYS_NAME)
        return True

    assert run(rt, proc)
    assert agent.stats["requests"] == 0
    assert manager.stats["timeouts"] == 1
