"""Tests for named reproducible RNG streams."""

from __future__ import annotations

import numpy as np

from repro.sim import RandomStreams


def test_same_name_same_draws():
    a = RandomStreams(seed=7).stream("loadgen/node1").random(8)
    b = RandomStreams(seed=7).stream("loadgen/node1").random(8)
    assert np.array_equal(a, b)


def test_different_names_independent():
    streams = RandomStreams(seed=7)
    a = streams.stream("a").random(8)
    b = streams.stream("b").random(8)
    assert not np.array_equal(a, b)


def test_creation_order_does_not_matter():
    s1 = RandomStreams(seed=3)
    _ = s1.stream("x").random(4)
    a = s1.stream("y").random(4)

    s2 = RandomStreams(seed=3)
    b = s2.stream("y").random(4)
    assert np.array_equal(a, b)


def test_stream_is_cached():
    streams = RandomStreams(seed=1)
    assert streams.stream("n") is streams.stream("n")


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("n").random(8)
    b = RandomStreams(seed=2).stream("n").random(8)
    assert not np.array_equal(a, b)
