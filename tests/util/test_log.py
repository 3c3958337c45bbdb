"""Logging wiring tests."""

from __future__ import annotations

import io
import logging

from repro.util.log import get_logger


def test_loggers_namespaced_under_repro():
    assert get_logger("worker").name == "repro.worker"
    assert get_logger("netmgmt").name == "repro.netmgmt"


def test_configured_stream_receives_component_logs():
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
    root = logging.getLogger("repro")
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        get_logger("worker").info("hello from %s", "w1")
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
    assert stream.getvalue() == "repro.worker INFO hello from w1\n"


def test_framework_signals_logged(rt, caplog):
    from repro.core import AdaptiveClusterFramework
    from repro.node import testbed_small
    from tests.core.toyapp import SumOfSquares

    cluster = testbed_small(rt, workers=1)
    framework = AdaptiveClusterFramework(rt, cluster, SumOfSquares(n=2))

    with caplog.at_level(logging.INFO, logger="repro"):
        def experiment():
            framework.start()
            framework.run()
            framework.shutdown()

        proc = rt.kernel.spawn(experiment, name="experiment")
        rt.kernel.run_until_idle()
        if proc.error is not None:
            raise proc.error

    messages = [r.message for r in caplog.records]
    assert any("-> Signal.START" in m or "start" in m.lower() for m in messages)
    assert any("stopped --" in m or "--start-->" in m.replace(" ", "")
               or "running" in m for m in messages)
