"""Compact self-describing entry codec (the one entry encoding).

Pickle is general but pays for that generality on every entry: each frame
re-describes the class, the field names, and the object protocol.  Space
entries are the opposite of general — a handful of flat classes whose
instances differ only in field *values*.  This module exploits that: a
class's field schema is registered once, when the class is defined
(:func:`register_entry`), and an encoded entry is then just a 5-byte
header plus the field values in schema order.

Frame format (little-endian throughout)::

    +------+----------------+----------------------------------+
    | 0xC3 | fingerprint u32| value_0 value_1 ... value_{n-1}  |
    +------+----------------+----------------------------------+

The fingerprint is ``crc32("<module>.<qualname>:<field,field,...>")`` —
a pure function of the class identity and its schema, so it is stable
across processes and registration orders (no sequence-number coupling).
Each value is a tag byte plus payload:

    ``N`` None                ``T``/``F`` bool
    ``i`` int64 ``<q``        ``I`` big int  (u32 length + signed bytes)
    ``f`` float64 ``<d``      ``s`` str      (u32 length + UTF-8)
    ``b`` bytes   (u32 + raw) ``p`` pickle value (u32 length + pickle bytes)

    Containers and any other non-scalar value ride in a ``p`` tag — the
    C pickler encodes a payload list faster than a per-element Python
    loop, and its bytes are equally canonical for plain containers.

Every encoder is deterministic, which gives the *canonical encoding*
contract the determinism checker relies on: the same entry value always
encodes to the same bytes, in every process, on every run.

This is the only frame kind, and the codec is total over
:class:`~repro.tuplespace.entry.Entry`: defining a subclass registers
its schema (``Entry.__init_subclass__`` calls :func:`register_entry`), so
a process that only ever decodes knows every fingerprint before the
first frame arrives.  One rule covers instances: their attributes must
be a subset of the schema.  An absent attribute encodes as ``N`` — what
a template and :func:`read_fields` already make of a missing field — and
an attribute outside the schema is an :class:`EntryError` at encode
time, as is a class with no schema.  Every reader raises
:class:`EntryError` for a buffer that does not start ``0xC3``; nothing
here unpickles a whole object.
"""

from __future__ import annotations

import inspect
import struct
from typing import Any, Optional
from zlib import crc32

from repro.errors import EntryError
from repro.util.serialization import deserialize, serialize

__all__ = [
    "MAGIC",
    "register_entry",
    "registered_fields",
    "init_fields",
    "encode_entry",
    "decode_any",
    "peek_class",
    "read_fields",
    "HEADER_SIZE",
]

#: First byte of every entry frame.
MAGIC = 0xC3
_MAGIC_BYTE = bytes([MAGIC])
#: Length of a compact frame's header (magic + u32 schema fingerprint):
#: ``data[:HEADER_SIZE]`` identifies the entry class without a decode.
HEADER_SIZE = 5

_pack_u32 = struct.Struct("<I").pack
_pack_i64 = struct.Struct("<q").pack
_pack_f64 = struct.Struct("<d").pack
_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_i64 = struct.Struct("<q").unpack_from
_unpack_f64 = struct.Struct("<d").unpack_from

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class _Schema:
    __slots__ = ("cls", "fields", "text", "fingerprint", "header", "slices")

    def __init__(self, cls: type, fields: tuple[str, ...]) -> None:
        self.cls = cls
        self.fields = fields
        #: What the fingerprint hashes: two schemas are the same schema
        #: iff their texts are equal, whatever class object carries them.
        self.text = f"{cls.__module__}.{cls.__qualname__}:{','.join(fields)}"
        self.fingerprint = crc32(self.text.encode("utf-8"))
        self.header = _MAGIC_BYTE + _pack_u32(self.fingerprint)
        #: names → per-field output slots (see :func:`read_fields`).
        self.slices: dict[tuple[str, ...], tuple[int, ...]] = {}


_BY_CLASS: dict[type, _Schema] = {}
_BY_FINGERPRINT: dict[int, _Schema] = {}


def schema_fingerprint(cls: type, fields: tuple[str, ...]) -> int:
    """Stable 32-bit identity of ``(class, schema)``.

    A pure function of the dotted class name and the ordered field list:
    independent of registration order and process, which is what lets
    two processes that merely import the same entry modules exchange
    frames.
    """
    return _Schema(cls, fields).fingerprint


def init_fields(cls: type) -> Optional[tuple[str, ...]]:
    """The schema ``cls.__init__`` declares: its parameter names after
    ``self`` (none for a class that never defined one), or None when it
    is variadic and so names no fields."""
    init = cls.__init__
    if init is object.__init__:
        return ()
    params = list(inspect.signature(init).parameters.values())[1:]
    if any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in params):
        return None
    return tuple(p.name for p in params)


def register_entry(cls: type, fields: Optional[tuple[str, ...]] = None) -> type:
    """Register the schema of ``cls``; returns ``cls`` (decorator-friendly).

    Defining an ``Entry`` subclass calls this, so it is called by hand
    only to override what that derived: ``fields`` fixes the schema
    order.  When omitted it is :func:`init_fields` — the convention that
    entry constructors assign each parameter to the same-named
    attribute.  A class whose ``__init__`` is installed after the class
    body ran (``@dataclass``) registers again after decoration.

    The same ``module.qualname:fields`` registered by a new class object
    (a module reload, a class defined in a function called twice)
    rebinds the fingerprint to the new class; two *different* schemas
    whose fingerprints clash raise :class:`EntryError`.
    """
    if fields is None:
        fields = init_fields(cls)
        if fields is None:
            raise EntryError(
                f"cannot derive schema for {cls.__name__}: "
                "variadic __init__; pass fields= explicitly"
            )
    schema = _Schema(cls, tuple(fields))
    other = _BY_FINGERPRINT.get(schema.fingerprint)
    if other is not None and other.text != schema.text:
        raise EntryError(
            f"schema fingerprint collision: {schema.text} vs {other.text}")
    _BY_CLASS[cls] = schema
    _BY_FINGERPRINT[schema.fingerprint] = schema
    return cls


def registered_fields(cls: type) -> Optional[tuple[str, ...]]:
    """The registered schema fields of ``cls``, or None."""
    schema = _BY_CLASS.get(cls)
    return schema.fields if schema is not None else None


# ---------------------------------------------------------------- encoding --


def _encode_value(out: list, value: Any) -> None:
    # Exact-class dispatch: a bool is not an int here, an Entry subclass
    # of str would not be a str — subtyping games go to the pickle tag,
    # which preserves exact semantics.
    vcls = value.__class__
    if value is None:
        out.append(b"N")
    elif vcls is str:
        raw = value.encode("utf-8")
        out.append(b"s" + _pack_u32(len(raw)) + raw)
    elif vcls is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"i" + _pack_i64(value))
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "little",
                                 signed=True)
            out.append(b"I" + _pack_u32(len(raw)) + raw)
    elif vcls is float:
        out.append(b"f" + _pack_f64(value))
    elif vcls is bool:
        out.append(b"T" if value else b"F")
    elif vcls is bytes:
        out.append(b"b" + _pack_u32(len(value)) + value)
    else:
        # Containers (list/tuple/dict) deliberately take the pickle tag:
        # the C pickler beats a per-element Python loop by ~3x on the
        # payload shapes entries actually carry, and pickle bytes for
        # plain containers are just as canonical (insertion-order
        # deterministic, no memo effects on fresh values).
        raw = serialize(value)
        out.append(b"p" + _pack_u32(len(raw)) + raw)


def _conform(schema: _Schema, attrs: dict) -> dict:
    """``attrs`` padded to the schema (an absent field is ``None``);
    :class:`EntryError` if it holds a name outside the schema."""
    fields = schema.fields
    extra = [name for name in attrs if name not in fields]
    if extra:
        raise EntryError(
            f"{schema.cls.__qualname__} instance has attributes outside its "
            f"schema {fields}: {extra}; name them in __init__ or call "
            "register_entry(cls, fields=...)")
    return dict.fromkeys(fields) | attrs


def encode_entry(entry: Any) -> bytes:
    """Canonical bytes for ``entry``.

    The instance's attributes must be a subset of its class's schema: an
    absent one encodes as ``None`` (so a field-less ``cls.__new__(cls)``
    template encodes), one outside the schema — or a class with no
    schema at all — raises :class:`EntryError`.
    """
    schema = _BY_CLASS.get(entry.__class__)
    if schema is None:
        raise EntryError(
            f"no entry schema for {entry.__class__.__qualname__}: subclass "
            "Entry with a non-variadic __init__, or call "
            "register_entry(cls, fields=...)")
    attrs = entry.__dict__
    fields = schema.fields
    if len(attrs) != len(fields):
        attrs = _conform(schema, attrs)
    out = [schema.header]
    append = out.append
    pack_u32, pack_i64 = _pack_u32, _pack_i64
    try:
        # The common field kinds (None / str / small int) are inlined;
        # everything else drops into the generic encoder.
        for name in fields:
            value = attrs[name]
            if value is None:
                append(b"N")
            elif value.__class__ is str:
                raw = value.encode("utf-8")
                append(b"s" + pack_u32(len(raw)) + raw)
            elif value.__class__ is int and _I64_MIN <= value <= _I64_MAX:
                append(b"i" + pack_i64(value))
            else:
                _encode_value(out, value)
    except KeyError:
        # As many attributes as fields, one field absent: one attribute
        # is outside the schema, which is what _conform reports.
        _conform(schema, attrs)
        raise
    return b"".join(out)


# ---------------------------------------------------------------- decoding --


def _decode_value(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == 0x4E:  # N
        return None, pos
    if tag == 0x73:  # s
        n, = _unpack_u32(data, pos)
        pos += 4
        return str(data[pos:pos + n], "utf-8"), pos + n
    if tag == 0x69:  # i
        value, = _unpack_i64(data, pos)
        return value, pos + 8
    if tag == 0x66:  # f
        value, = _unpack_f64(data, pos)
        return value, pos + 8
    if tag == 0x54:  # T
        return True, pos
    if tag == 0x46:  # F
        return False, pos
    if tag == 0x62:  # b
        n, = _unpack_u32(data, pos)
        pos += 4
        return bytes(data[pos:pos + n]), pos + n
    if tag == 0x49:  # I
        n, = _unpack_u32(data, pos)
        pos += 4
        return int.from_bytes(data[pos:pos + n], "little", signed=True), pos + n
    if tag == 0x70:  # p
        n, = _unpack_u32(data, pos)
        pos += 4
        return deserialize(bytes(data[pos:pos + n])), pos + n
    raise EntryError(f"corrupt compact frame: unknown value tag {tag:#x}")


def _schema_of(data) -> _Schema:
    """The registered schema a frame's header names; :class:`EntryError`
    for anything that is not an entry frame of a known schema."""
    if not data:
        raise EntryError("cannot deserialize empty payload")
    if data[0] != MAGIC:
        raise EntryError(f"not an entry frame: first byte {data[0]:#x}")
    if len(data) < HEADER_SIZE:
        raise EntryError("corrupt compact frame: truncated")
    fingerprint, = _unpack_u32(data, 1)
    schema = _BY_FINGERPRINT.get(fingerprint)
    if schema is None:
        raise EntryError(
            f"compact frame with unregistered schema {fingerprint:#x}"
        )
    return schema


def peek_class(data) -> type:
    """The entry class of a frame without decoding its values.

    Raises :class:`EntryError` for a buffer that is not an entry frame
    or whose schema is not registered in this process.
    """
    return _schema_of(data).cls


#: Encoded size of the fixed-width values, by tag; the other valid tags
#: (``s b I p``) carry a u32 length after the tag byte.
_FIXED_SIZE = {0x4E: 1, 0x54: 1, 0x46: 1, 0x69: 9, 0x66: 9}
_SIZED_TAGS = frozenset(b"sbIp")


def read_fields(data, names: tuple[str, ...]) -> list:
    """The values of the fields ``names`` of a frame, in that order,
    without decoding the rest (a field-slice read).

    For whoever routes an entry rather than consumes it: fields nobody
    asked for are stepped over by tag and length — a ``p`` payload is
    never unpickled — and the walk stops at the last field wanted.  A
    name outside the schema reads as ``None``, which is what a template
    (``None`` = wildcard, never equal to a set field) and ``getattr(entry,
    name, None)`` both make of a missing attribute.  Raises
    :class:`EntryError` for a malformed frame.
    """
    schema = _schema_of(data)
    try:
        slots = schema.slices.get(names)
        if slots is None:
            # Field position → index into ``names`` (-1: step over), cut
            # after the last field wanted.
            wanted = [names.index(field) if field in names else -1
                      for field in schema.fields]
            while wanted and wanted[-1] < 0:
                wanted.pop()
            slots = schema.slices[names] = tuple(wanted)
        out: list = [None] * len(names)
        pos = HEADER_SIZE
        for slot in slots:
            tag = data[pos]
            if slot < 0:
                size = _FIXED_SIZE.get(tag)
                if size is None:
                    if tag not in _SIZED_TAGS:
                        raise EntryError("corrupt compact frame: unknown "
                                         f"value tag {tag:#x}")
                    size = 5 + _unpack_u32(data, pos + 1)[0]
                pos += size
            elif tag == 0x73:  # s (inlined, like decode_any's)
                end = pos + 5 + _unpack_u32(data, pos + 1)[0]
                out[slot] = str(data[pos + 5:end], "utf-8")
                pos = end
            elif tag == 0x69:  # i
                out[slot], = _unpack_i64(data, pos + 1)
                pos += 9
            else:
                out[slot], pos = _decode_value(data, pos)
    except (IndexError, struct.error, UnicodeDecodeError):
        # Ran off the end mid-value (a cut inside a UTF-8 sequence shows
        # up as a decode error before the length check below can).
        raise EntryError("corrupt compact frame: truncated") from None
    if pos > len(data):
        raise EntryError("corrupt compact frame: truncated")
    return out


def decode_any(data) -> Any:
    """Decode an entry frame (``bytes`` or ``memoryview``).

    The instance is reconstructed without running ``__init__`` — every
    schema field is assigned directly, in schema order.
    """
    schema = _schema_of(data)
    cls = schema.cls
    obj = cls.__new__(cls)
    attrs = obj.__dict__
    pos = 5
    unpack_u32, unpack_i64 = _unpack_u32, _unpack_i64
    # Scalar tags inlined to keep the per-field cost at dict-assignment
    # level; containers and rarities recurse through _decode_value.
    for name in schema.fields:
        tag = data[pos]
        pos += 1
        if tag == 0x4E:  # N
            attrs[name] = None
        elif tag == 0x73:  # s
            n, = unpack_u32(data, pos)
            pos += 4
            attrs[name] = str(data[pos:pos + n], "utf-8")
            pos += n
        elif tag == 0x69:  # i
            attrs[name], = unpack_i64(data, pos)
            pos += 8
        else:
            attrs[name], pos = _decode_value(data, pos - 1)
    return obj
