"""Entry codec: totality over ``Entry``, round-trip, canonicality.

The codec's contract has three legs the space hot path leans on:

- *total*: every ``Entry`` subclass has a schema from the moment it is
  defined, and every instance whose attributes are a subset of it
  round-trips in the one frame kind there is;
- *canonical*: the same entry value encodes to the same bytes, in this
  process and in any other (the determinism checker compares frames),
  and the core classes' bytes are pinned;
- *loud*: a class with no schema, an attribute outside it, and a buffer
  that is not an entry frame each raise ``EntryError`` — nothing falls
  back to a whole-object pickle, and no reader unpickles one.

``CHAOS_SEED`` seeds the generated-entry-class property, so CI's matrix
seeds explore different class shapes.
"""

from __future__ import annotations

import inspect
import os
import struct
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core.entries import (
    DeadLetterEntry,
    MasterCheckpointEntry,
    ResultEntry as CoreResult,
    TaskEntry as CoreTask,
)
from repro.errors import EntryError
from repro.tuplespace import Entry
from repro.util.codec import (
    MAGIC,
    decode_any,
    encode_entry,
    peek_class,
    read_fields,
    register_entry,
    registered_fields,
    schema_fingerprint,
)
from repro.util.serialization import serialize
from tests.tuplespace.entries import PriorityTask, ResultEntry, TaskEntry

_env_seed = os.environ.get("CHAOS_SEED")
_seeded = seed(int(_env_seed)) if _env_seed else (lambda test: test)

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
    assert encode_entry(entry)[0] == MAGIC


@given(entry=entries)
def test_encoding_is_canonical(entry):
    clone = TaskEntry(entry.app, entry.task_id, entry.payload)
    assert encode_entry(entry) == encode_entry(clone)


@given(entry=entries)
@settings(max_examples=25)
def test_pickle_frames_are_refused_by_every_reader(entry):
    # A whole-object pickle is not an entry frame: no reader loads it.
    frame = serialize(entry)
    for read in (decode_any, peek_class):
        with pytest.raises(EntryError, match="not an entry frame"):
            read(frame)


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
    """Module-level (picklable) but no ``Entry``, and never registered."""

    def __init__(self):
        self.x = 1


def test_class_without_a_schema_raises():
    with pytest.raises(EntryError, match="register_entry"):
        encode_entry(_Loose())

    class _Variadic(Entry):
        """Its ``__init__`` names no fields, so defining it derives none."""

        def __init__(self, **fields):
            self.__dict__.update(fields)

    # A variadic __init__ is not an error at class definition — only at
    # the first encode, and only until the class declares its fields.
    assert registered_fields(_Variadic) is None
    with pytest.raises(EntryError, match="register_entry"):
        encode_entry(_Variadic(a=1))
    with pytest.raises(EntryError, match="fields="):
        register_entry(_Variadic)
    register_entry(_Variadic, fields=("a", "b"))
    decoded = decode_any(encode_entry(_Variadic(a=1)))
    assert type(decoded) is _Variadic
    assert decoded.__dict__ == {"a": 1, "b": None}


def test_attribute_outside_the_schema_raises():
    entry = TaskEntry("a", 1, None)
    entry.extra = "grew a field"
    with pytest.raises(EntryError, match=r"outside its schema.*extra"):
        encode_entry(entry)
    # ... also when it hides behind an unchanged attribute count.
    del entry.payload
    with pytest.raises(EntryError, match=r"outside its schema.*extra"):
        encode_entry(entry)


def test_absent_attribute_encodes_as_none():
    # What a template and read_fields already make of a missing field,
    # and what lets a field-less ``cls.__new__(cls)`` template through
    # ``JavaSpace.snapshot``.
    partial = TaskEntry.__new__(TaskEntry)
    partial.task_id = 7
    assert encode_entry(partial) == encode_entry(TaskEntry(None, 7, None))
    assert encode_entry(TaskEntry.__new__(TaskEntry)) == \
        encode_entry(TaskEntry())


def test_subclass_has_its_own_schema():
    # PriorityTask extends TaskEntry by one field; frames must not be
    # confusable even though the shared prefix matches.
    task = decode_any(encode_entry(TaskEntry("a", 1, None)))
    prio = decode_any(encode_entry(PriorityTask("a", 1, None, 7)))
    assert type(task) is TaskEntry
    assert type(prio) is PriorityTask
    assert prio.priority == 7


def test_peek_class_reads_the_header_only():
    frame = encode_entry(TaskEntry("a", 1, None))
    assert peek_class(frame) is TaskEntry
    assert peek_class(frame[:5]) is TaskEntry
    with pytest.raises(EntryError):
        peek_class(frame[:4])


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


def test_fingerprint_clash_raises_but_the_same_schema_rebinds(monkeypatch):
    def define():
        class Twice:
            def __init__(self, a=None):
                self.a = a
        return Twice

    class Other:
        def __init__(self, a=None):
            self.a = a

    monkeypatch.setattr("repro.util.codec.crc32", lambda text: 0x5EED5EED)
    first, second = define(), define()
    register_entry(first)
    frame = encode_entry(first(1))
    # Same module.qualname:fields from a new class object (a reload, a
    # function called twice): the fingerprint now names the new class.
    register_entry(second)
    assert type(decode_any(frame)) is second
    assert encode_entry(first(1)) == frame      # stale instances still encode
    # A different schema behind the same fingerprint is refused.
    with pytest.raises(EntryError, match="collision"):
        register_entry(Other)
    with pytest.raises(EntryError, match="collision"):
        register_entry(first, fields=("a", "b"))


def test_memoryview_input_decodes():
    entry = TaskEntry("app", 3, [1, 2])
    assert decode_any(memoryview(encode_entry(entry))).__dict__ == \
        entry.__dict__


# ------------------------------------------------ total over Entry classes --


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _import_everything():
    """Every module ``repro`` has, plus the shared test entries."""
    import importlib
    import pkgutil

    import repro
    import tests.tuplespace.entries  # noqa: F401

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def test_every_entry_class_has_a_schema_and_round_trips():
    """The registry walk: no ``Entry`` subclass the program (or the
    shared test entries) defines is second-class."""
    _import_everything()
    classes = [Entry] + [
        cls for cls in _subclasses(Entry)
        if cls.__module__.startswith("repro.")
        or cls.__module__ == "tests.tuplespace.entries"]
    assert {CoreTask, CoreResult, MasterCheckpointEntry, DeadLetterEntry,
            TaskEntry, ResultEntry, PriorityTask} <= set(classes)
    for cls in classes:
        fields = registered_fields(cls)
        assert fields is not None, cls
        blank = decode_any(encode_entry(cls.__new__(cls)))
        assert type(blank) is cls
        assert blank.__dict__ == dict.fromkeys(fields)
        full = cls.__new__(cls)
        for i, name in enumerate(fields):
            setattr(full, name, [i, name])
        decoded = decode_any(encode_entry(full))
        assert type(decoded) is cls and decoded.__dict__ == full.__dict__


def test_a_process_that_only_decodes_knows_every_class():
    """Schemas exist from class definition, not from the first encode:
    a child that merely imports the entry modules decodes — and places —
    frames it never produced."""
    entries = [CoreTask("app", 1, [1], 0, "app/1", "t", 2),
               CoreResult("app", 1, 2.5, "w"), MasterCheckpointEntry("app", 3),
               DeadLetterEntry("app", 1, None, "boom"),
               TaskEntry("a", 1, "p"), ResultEntry("a", 1, 2),
               PriorityTask("a", 1, "p", 9), Entry()]
    frames = [encode_entry(entry).hex() for entry in entries]
    script = "import sys; sys.path[:0] = %r\n" % (sys.path,) + (
        inspect.getsource(_import_everything) + "_import_everything()\n"
        "from repro.util.codec import decode_any, peek_class\n"
        "for line in sys.stdin.read().split():\n"
        "    frame = bytes.fromhex(line)\n"
        "    entry = decode_any(frame)\n"
        "    assert peek_class(frame) is type(entry)\n"
        "    print(type(entry).__module__, type(entry).__qualname__,\n"
        "          sorted(k for k, v in vars(entry).items() if v is not None))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], text=True,
                         input="\n".join(frames), capture_output=True,
                         check=True)
    assert out.stdout.splitlines() == [
        f"{type(e).__module__} {type(e).__qualname__} "
        f"{sorted(k for k, v in vars(e).items() if v is not None)}"
        for e in entries]


def _define(names, name="Generated", base=Entry):
    """A new ``Entry`` subclass whose ``__init__`` takes ``names`` —
    compiled from source, so it has real named parameters."""
    namespace: dict = {}
    exec("def __init__(self, {}):\n{}".format(
        ", ".join(f"{n}=None" for n in names),
        "".join(f"    self.{n} = {n}\n" for n in names)), namespace)
    return type(name, (base,), namespace)


field_names = st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8,
                       unique=True).map(tuple)


@_seeded
@given(names=field_names, values=st.lists(payloads, min_size=9, max_size=9),
       wanted=st.lists(st.sampled_from("abcdefghz"), unique=True).map(tuple))
def test_generated_entry_classes_are_first_class(names, values, wanted):
    cls = _define(names)
    assert registered_fields(cls) == names
    entry = cls(*values[:len(names)])
    frame = encode_entry(entry)
    decoded = decode_any(frame)
    assert type(decoded) is cls and decoded.__dict__ == entry.__dict__
    assert read_fields(frame, wanted) == \
        [entry.__dict__.get(name) for name in wanted]
    # A subclass inheriting the __init__ has the same fields, its own
    # fingerprint; one with its own __init__ has its own fields.
    heir = type("Heir", (cls,), {})
    assert registered_fields(heir) == names
    assert peek_class(encode_entry(heir(*values[:len(names)]))) is heir
    wider = _define(names + ("z",), "Wider", base=cls)
    extended = decode_any(encode_entry(wider(*values[:len(names) + 1])))
    assert type(extended) is wider
    assert extended.z == values[len(names)]
    # The same qualname defined again rebinds instead of raising.
    again = _define(names)
    assert again is not cls
    assert type(decode_any(frame)) is again
    assert encode_entry(entry) == frame


#: One frame per core class, captured at the commit before the codec
#: became total: "the core classes' bytes do not change" as a test.
GOLDEN = [
    (CoreTask("app", 7, {"lo": 1, "hi": [2, 3]}, 0, "app/7", "acme", 2),
     "c33e70971d7303000000617070690700000000000000702400000080059519000000"
     "000000007d94288c026c6f944b018c026869945d94284b024b0365752e690000000000"
     "00000073050000006170702f37730400000061636d65690200000000000000"),
    (CoreResult("app", 7, (1.5, "x"), "w1", 12.5, "app/7", None, None),
     "c384acf4317303000000617070690700000000000000701b00000080059510000000"
     "00000000473ff80000000000008c01789486942e730200000077316600000000000029"
     "4073050000006170702f374e4e"),
    (MasterCheckpointEntry("app", 3, {1: 2.0}, {2: "boom"}, {"w1": 4},
                           [5, 6], 0, 1),
     "c3285aa39c7303000000617070690300000000000000701a0000008005950f000000"
     "000000007d944b01474000000000000000732e70180000008005950d00000000000000"
     "7d944b028c04626f6f6d94732e70160000008005950b000000000000007d948c027731"
     "944b04732e701400000080059509000000000000005d94284b054b06652e6900000000"
     "00000000690100000000000000"),
    (DeadLetterEntry("app", 9, b"\x00\x01", "ValueError: bad", "w2", 3,
                     "app/9", "acme"),
     "c304e37493730300000061707069090000000000000062020000000001730f000000"
     "56616c75654572726f723a206261647302000000773269030000000000000073050000"
     "006170702f39730400000061636d65"),
]


@pytest.mark.parametrize("entry, golden", GOLDEN,
                         ids=[type(e).__name__ for e, _ in GOLDEN])
def test_core_class_frames_match_their_golden_bytes(entry, golden):
    assert encode_entry(entry).hex() == golden
    assert decode_any(bytes.fromhex(golden)).__dict__ == entry.__dict__


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
    with pytest.raises(EntryError, match="not an entry frame"):
        read_fields(serialize(_Loose()), ("x",))


def test_read_fields_rejects_empty_and_unregistered_frames():
    with pytest.raises(EntryError):
        read_fields(b"", ("a",))
    with pytest.raises(EntryError):
        read_fields(bytes([MAGIC]) + struct.pack("<I", 0xDEADBEEF), ("a",))


def test_read_fields_accepts_a_memoryview():
    frame = encode_entry(TaskEntry("app", 3, [1, 2]))
    assert read_fields(memoryview(frame), ("payload", "app")) == \
        [[1, 2], "app"]
