"""Serialization helpers emulating JavaSpaces entry requirements.

JavaSpaces requires entries to be ``Serializable``; the space proxy
serializes entry fields before transmitting them.  We emulate this with
pickle: :func:`serialize` enforces the constraint (raising
:class:`~repro.errors.EntryError`) and gives the bytes the network sends;
:func:`serialized_size` gives the byte size the planning cost models use.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.errors import EntryError

_PROTOCOL = pickle.HIGHEST_PROTOCOL


def serialize(obj: Any) -> bytes:
    """Pickle ``obj``, raising :class:`EntryError` if it cannot be pickled."""
    try:
        return pickle.dumps(obj, protocol=_PROTOCOL)
    except Exception as exc:  # pickle raises a zoo of types
        raise EntryError(f"object of type {type(obj).__name__} is not serializable: {exc}") from exc


def deserialize(data: bytes) -> Any:
    """Unpickle bytes produced by :func:`serialize`."""
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise EntryError(f"cannot deserialize payload: {exc}") from exc


def serialized_size(obj: Any) -> int:
    """Byte size of ``obj`` once serialized (used by cost models)."""
    return len(serialize(obj))
