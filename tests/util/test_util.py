"""Utility module tests: serialization."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import EntryError
from repro.util import serialized_size
from repro.util.serialization import deserialize, serialize


def test_serialize_round_trip():
    payload = {"a": [1, 2, 3], "b": np.arange(4)}
    out = deserialize(serialize(payload))
    assert out["a"] == [1, 2, 3]
    assert np.array_equal(out["b"], np.arange(4))


def test_serialized_size_grows_with_content():
    small = serialized_size([0])
    large = serialized_size(list(range(1000)))
    assert large > small


def test_unserializable_raises_entry_error():
    with pytest.raises(EntryError, match="not serializable"):
        serialize(lambda: None)
    with pytest.raises(EntryError):
        serialize(threading.Lock())


def test_deserialize_garbage_raises():
    with pytest.raises(EntryError):
        deserialize(b"not a pickle")
