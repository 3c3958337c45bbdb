"""Compact entry codec: round-trip, canonicality, and pickle interop.

The codec's contract has three legs the space hot path leans on:

- *total*: every picklable entry round-trips (compact frame when the
  class is registered and the instance matches its schema, pickle
  fallback otherwise);
- *canonical*: the same entry value encodes to the same bytes, in this
  process and in any other (the determinism checker compares frames);
- *interoperable*: ``decode_any`` reads both codecs by first-byte
  dispatch, so stores that switch codecs keep reading their old bytes.
"""

from __future__ import annotations

import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EntryError
from repro.util.codec import (
    MAGIC,
    decode_any,
    encode_entry,
    is_compact,
    peek_class,
    read_fields,
    register_entry,
    registered_fields,
    schema_fingerprint,
)
from repro.util.serialization import serialize
from tests.tuplespace.entries import PriorityTask, ResultEntry, TaskEntry

# Scalars the inline fast paths cover, plus the shapes that take the
# pickle value tag (containers) and the big-int escape.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)
payloads = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.tuples(scalars, scalars),
    st.dictionaries(st.text(max_size=5), scalars, max_size=4),
)
entries = st.builds(
    TaskEntry,
    app=st.one_of(st.none(), st.text(max_size=10)),
    task_id=st.one_of(st.none(), st.integers(-(2 ** 70), 2 ** 70)),
    payload=payloads,
)


@given(entry=entries)
def test_round_trip_preserves_every_field(entry):
    decoded = decode_any(encode_entry(entry))
    assert type(decoded) is TaskEntry
    assert decoded.__dict__ == entry.__dict__


@given(entry=entries)
def test_registered_entries_use_compact_frames(entry):
    assert is_compact(encode_entry(entry))


@given(entry=entries)
def test_encoding_is_canonical(entry):
    clone = TaskEntry(entry.app, entry.task_id, entry.payload)
    assert encode_entry(entry) == encode_entry(clone)


@given(entry=entries)
@settings(max_examples=25)
def test_pickle_frames_decode_to_the_same_value(entry):
    # decode_any must accept the reference codec's bytes unchanged.
    decoded = decode_any(serialize(entry))
    assert decoded.__dict__ == entry.__dict__


def test_canonical_bytes_stable_across_process_runs():
    """The cross-process leg of the determinism contract.

    A child interpreter (fresh registration order, fresh hash seed)
    must produce byte-identical frames for the same entry values.
    """
    script = (
        "import sys; sys.path[:0] = %r\n"
        "from repro.util.codec import encode_entry\n"
        "from tests.tuplespace.entries import PriorityTask, TaskEntry\n"
        "for e in (TaskEntry('app7', 42, {'k': [1, 2.5, None]}),\n"
        "          TaskEntry(), PriorityTask('a', 1, (b'x',), 3)):\n"
        "    print(encode_entry(e).hex())\n"
    ) % (sys.path,)
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    local = [encode_entry(e).hex() for e in
             (TaskEntry("app7", 42, {"k": [1, 2.5, None]}),
              TaskEntry(), PriorityTask("a", 1, (b"x",), 3))]
    assert out.stdout.split() == local


class _Loose:
    """Module-level (picklable) but never registered with the codec."""

    def __init__(self):
        self.x = 1


def test_unregistered_class_falls_back_to_pickle():
    data = encode_entry(_Loose())
    assert not is_compact(data)
    assert decode_any(data).x == 1


def test_schema_drifted_instance_falls_back_to_pickle():
    entry = TaskEntry("a", 1, None)
    entry.extra = "grew a field"
    data = encode_entry(entry)
    assert not is_compact(data)
    decoded = decode_any(data)
    assert decoded.extra == "grew a field"


def test_subclass_has_its_own_schema():
    # PriorityTask extends TaskEntry by one field; frames must not be
    # confusable even though the shared prefix matches.
    task = decode_any(encode_entry(TaskEntry("a", 1, None)))
    prio = decode_any(encode_entry(PriorityTask("a", 1, None, 7)))
    assert type(task) is TaskEntry
    assert type(prio) is PriorityTask
    assert prio.priority == 7


def test_peek_class_reads_the_header_only():
    assert peek_class(encode_entry(TaskEntry("a", 1, None))) is TaskEntry
    assert peek_class(serialize(TaskEntry("a", 1, None))) is None


def test_unregistered_fingerprint_raises():
    bogus = bytes([MAGIC]) + struct.pack("<I", 0xDEADBEEF)
    with pytest.raises(EntryError):
        decode_any(bogus)
    with pytest.raises(EntryError):
        peek_class(bogus)


@pytest.mark.parametrize("tag", [b"z", b"l", b"t", b"d"])
def test_unknown_value_tag_raises(tag):
    # 'z' was never a tag; containers ride the 'p' tag, so the structural
    # l/t/d tags no encoder ever emitted are just as unknown.
    frame = bytearray(encode_entry(TaskEntry("a", 1, None)))
    frame[5:6] = tag
    with pytest.raises(EntryError):
        decode_any(bytes(frame))


def test_empty_payload_raises():
    with pytest.raises(EntryError):
        decode_any(b"")


def test_fingerprint_is_a_pure_function_of_class_and_fields():
    fp = schema_fingerprint(TaskEntry, ("app", "task_id", "payload"))
    assert fp == schema_fingerprint(TaskEntry, ("app", "task_id", "payload"))
    assert fp != schema_fingerprint(TaskEntry, ("task_id", "app", "payload"))
    assert registered_fields(TaskEntry) == ("app", "task_id", "payload")
    assert registered_fields(dict) is None


def test_register_derives_schema_from_init_parameters():
    class Fresh:
        def __init__(self, a=None, b=None):
            self.a = a
            self.b = b

    register_entry(Fresh)
    assert registered_fields(Fresh) == ("a", "b")
    decoded = decode_any(encode_entry(Fresh(1, "x")))
    assert (decoded.a, decoded.b) == (1, "x")


def test_memoryview_input_decodes():
    entry = TaskEntry("app", 3, [1, 2])
    assert decode_any(memoryview(encode_entry(entry))).__dict__ == \
        entry.__dict__


# ------------------------------------------------------ field-slice reads --


class Wide:
    """Six free-form fields: any value tag can sit before, between and
    after the fields a reader asks for."""

    FIELDS = ("a", "b", "c", "d", "e", "f")

    def __init__(self, a=None, b=None, c=None, d=None, e=None, f=None):
        self.a, self.b, self.c, self.d, self.e, self.f = a, b, c, d, e, f


register_entry(Wide)

wide_entries = st.builds(Wide, *([payloads] * len(Wide.FIELDS)))
some_names = st.lists(st.sampled_from(Wide.FIELDS + ("absent",)),
                      unique=True).map(tuple)


@given(entry=wide_entries, names=some_names)
def test_read_fields_equals_the_attributes(entry, names):
    """Every tag kind (N T F i I f s b p), any subset, any order."""
    attrs = entry.__dict__
    assert read_fields(encode_entry(entry), names) == \
        [attrs.get(name) for name in names]


@given(entry=wide_entries, cut=st.integers(0, 400))
def test_read_fields_rejects_a_truncated_frame(entry, cut):
    frame = encode_entry(entry)
    with pytest.raises(EntryError):
        read_fields(frame[:cut % len(frame)], Wide.FIELDS)


def test_read_fields_stops_at_the_last_field_wanted():
    frame = encode_entry(Wide("x", 2, [3], "y", 5, 6))
    cut = frame.index(b"s\x01\x00\x00\x00y")
    # Everything from field d on is missing; a, b, c still read.
    assert read_fields(frame[:cut], ("c", "a")) == [[3], "x"]


def _wide_frame(*values: bytes) -> bytes:
    return encode_entry(Wide())[:5] + b"".join(values)


def test_unasked_payload_is_never_unpickled():
    garbage = b"this is no pickle"
    frame = _wide_frame(b"s\x01\x00\x00\x00x",
                        b"p" + struct.pack("<I", len(garbage)) + garbage,
                        b"i" + struct.pack("<q", 5), b"N", b"N", b"N")
    assert read_fields(frame, ("c", "a")) == [5, "x"]
    with pytest.raises(EntryError):
        read_fields(frame, ("b",))
    with pytest.raises(EntryError):
        decode_any(frame)


@pytest.mark.parametrize("names", [("a",), ("b",)])
def test_read_fields_rejects_an_unknown_tag(names):
    # Whether the bad tag is the field wanted or one stepped over.
    frame = _wide_frame(b"z", b"N", b"N", b"N", b"N", b"N")
    with pytest.raises(EntryError):
        read_fields(frame, names)


def test_read_fields_has_nothing_to_read_in_a_pickle_frame():
    assert read_fields(encode_entry(_Loose()), ("x",)) is None
    drifted = TaskEntry("a", 1, None)
    drifted.extra = "grew a field"
    assert read_fields(encode_entry(drifted), ("app",)) is None


def test_read_fields_rejects_empty_and_unregistered_frames():
    with pytest.raises(EntryError):
        read_fields(b"", ("a",))
    with pytest.raises(EntryError):
        read_fields(bytes([MAGIC]) + struct.pack("<I", 0xDEADBEEF), ("a",))


def test_read_fields_accepts_a_memoryview():
    frame = encode_entry(TaskEntry("app", 3, [1, 2]))
    assert read_fields(memoryview(frame), ("payload", "app")) == \
        [[1, 2], "app"]
