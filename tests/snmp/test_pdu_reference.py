"""The SNMP codec against a verbatim copy of its old implementation.

``encode_message``/``decode_message`` walk a message once by index and
take OID encodings from tables; the copy below builds and slices a
``_Reader`` per TLV.  Encodings must be byte-identical, decodings equal,
and input the old codec rejects must be rejected with ``CodecError``.
The one intended divergence: a community that is not UTF-8 made the old
decoder leak ``UnicodeDecodeError``; it is a ``CodecError`` now.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.snmp.oid import Oid
from repro.snmp.pdu import (
    SNMP_VERSION_1,
    TAG_INTEGER,
    TAG_NULL,
    TAG_OCTET_STRING,
    TAG_OID,
    TAG_SEQUENCE,
    GetBulkRequest,
    GetNextRequest,
    GetRequest,
    GetResponse,
    SetRequest,
    TrapV2,
    _PDU_BY_TAG,
    _Pdu,
    decode_message,
    encode_message,
)

# -- the reference: the codec as it was -------------------------------------------


def _encode_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    payload = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(payload)]) + payload


def _tlv(tag: int, content: bytes) -> bytes:
    return bytes([tag]) + _encode_length(len(content)) + content


def _encode_integer(value: int) -> bytes:
    if value == 0:
        return _tlv(TAG_INTEGER, b"\x00")
    length = (value.bit_length() + 8) // 8  # +1 bit for the sign
    return _tlv(TAG_INTEGER, value.to_bytes(length, "big", signed=True))


def _encode_oid(oid: Oid) -> bytes:
    parts = oid.parts
    out = bytearray([parts[0] * 40 + parts[1]])
    for sub in parts[2:]:
        chunk = bytearray([sub & 0x7F])
        sub >>= 7
        while sub:
            chunk.insert(0, 0x80 | (sub & 0x7F))
            sub >>= 7
        out.extend(chunk)
    return _tlv(TAG_OID, bytes(out))


def _encode_value(value: Any) -> bytes:
    if value is None:
        return _tlv(TAG_NULL, b"")
    if isinstance(value, bool):
        return _encode_integer(int(value))
    if isinstance(value, int):
        return _encode_integer(value)
    if isinstance(value, float):
        # SNMPv1 has no REAL type; agents report scaled integers.
        return _encode_integer(round(value))
    if isinstance(value, str):
        return _tlv(TAG_OCTET_STRING, value.encode("utf-8"))
    if isinstance(value, bytes):
        return _tlv(TAG_OCTET_STRING, value)
    if isinstance(value, Oid):
        return _encode_oid(value)
    raise CodecError(f"cannot encode value of type {type(value).__name__}")


def reference_encode(pdu: _Pdu) -> bytes:
    """Encode a full SNMPv1 message: Sequence(version, community, PDU)."""
    varbind_bytes = b"".join(
        _tlv(TAG_SEQUENCE, _encode_oid(Oid(oid)) + _encode_value(value))
        for oid, value in pdu.varbinds
    )
    pdu_bytes = _tlv(
        pdu.TAG,
        _encode_integer(pdu.request_id)
        + _encode_integer(pdu.error_status)
        + _encode_integer(pdu.error_index)
        + _tlv(TAG_SEQUENCE, varbind_bytes),
    )
    return _tlv(
        TAG_SEQUENCE,
        _encode_integer(SNMP_VERSION_1)
        + _tlv(TAG_OCTET_STRING, pdu.community.encode("utf-8"))
        + pdu_bytes,
    )


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.data)

    def byte(self) -> int:
        if self.eof():
            raise CodecError("truncated message")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CodecError("truncated content")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def tlv(self) -> tuple[int, bytes]:
        tag = self.byte()
        first = self.byte()
        if first < 0x80:
            length = first
        else:
            n_bytes = first & 0x7F
            if n_bytes == 0 or n_bytes > 4:
                raise CodecError(f"unsupported length-of-length {n_bytes}")
            length = int.from_bytes(self.read(n_bytes), "big")
        return tag, self.read(length)


def _decode_integer(content: bytes) -> int:
    if not content:
        raise CodecError("empty INTEGER")
    return int.from_bytes(content, "big", signed=True)


def _decode_oid(content: bytes) -> Oid:
    if not content:
        raise CodecError("empty OID")
    first = content[0]
    parts = [min(first // 40, 2), first - 40 * min(first // 40, 2)]
    sub = 0
    for byte in content[1:]:
        sub = (sub << 7) | (byte & 0x7F)
        if not byte & 0x80:
            parts.append(sub)
            sub = 0
    if sub:
        raise CodecError("OID subidentifier not terminated")
    return Oid(parts)


def _decode_value(tag: int, content: bytes) -> Any:
    if tag == TAG_NULL:
        return None
    if tag == TAG_INTEGER:
        return _decode_integer(content)
    if tag == TAG_OCTET_STRING:
        try:
            return content.decode("utf-8")
        except UnicodeDecodeError:
            return content
    if tag == TAG_OID:
        return _decode_oid(content)
    raise CodecError(f"unexpected value tag 0x{tag:02x}")


def reference_decode(data: bytes) -> _Pdu:
    """Decode bytes produced by :func:`reference_encode`."""
    outer_tag, outer = _Reader(data).tlv()
    if outer_tag != TAG_SEQUENCE:
        raise CodecError(f"message must be a SEQUENCE, got 0x{outer_tag:02x}")
    reader = _Reader(outer)

    tag, content = reader.tlv()
    if tag != TAG_INTEGER or _decode_integer(content) != SNMP_VERSION_1:
        raise CodecError("unsupported SNMP version")
    tag, content = reader.tlv()
    if tag != TAG_OCTET_STRING:
        raise CodecError("community must be OCTET STRING")
    community = content.decode("utf-8")

    pdu_tag, pdu_content = reader.tlv()
    pdu_class = _PDU_BY_TAG.get(pdu_tag)
    if pdu_class is None:
        raise CodecError(f"unknown PDU tag 0x{pdu_tag:02x}")
    pdu_reader = _Reader(pdu_content)
    tag, content = pdu_reader.tlv()
    request_id = _decode_integer(content)
    tag, content = pdu_reader.tlv()
    error_status = _decode_integer(content)
    tag, content = pdu_reader.tlv()
    error_index = _decode_integer(content)
    tag, varbind_content = pdu_reader.tlv()
    if tag != TAG_SEQUENCE:
        raise CodecError("varbind list must be a SEQUENCE")

    varbinds: list[VarBind] = []
    vb_reader = _Reader(varbind_content)
    while not vb_reader.eof():
        tag, vb = vb_reader.tlv()
        if tag != TAG_SEQUENCE:
            raise CodecError("varbind must be a SEQUENCE")
        inner = _Reader(vb)
        oid_tag, oid_content = inner.tlv()
        if oid_tag != TAG_OID:
            raise CodecError("varbind name must be an OID")
        value_tag, value_content = inner.tlv()
        varbinds.append(
            (_decode_oid(oid_content), _decode_value(value_tag, value_content))
        )

    pdu = pdu_class(
        request_id=request_id,
        varbinds=varbinds,
        error_status=error_status,
        error_index=error_index,
        community=community,
    )
    return pdu


# -- strategies ---------------------------------------------------------------------

PDU_CLASSES = (GetRequest, GetNextRequest, GetResponse, SetRequest,
               GetBulkRequest, TrapV2)

oids = st.builds(
    lambda first, second, rest: Oid([first, second] + rest),
    st.integers(0, 2),
    st.integers(0, 39),
    st.lists(st.integers(0, 2**35), max_size=10),
)
texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=200)
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-300, 300),
    st.floats(-1e12, 1e12, allow_nan=False),
    texts,
    st.binary(max_size=200),
    oids,
)
pdus = st.builds(
    lambda cls, **fields: cls(**fields),
    st.sampled_from(PDU_CLASSES),
    request_id=st.one_of(st.integers(0, 300), st.integers(-(2**40), 2**40)),
    varbinds=st.lists(st.tuples(oids, values), max_size=12),
    error_status=st.integers(-5, 300),
    error_index=st.integers(0, 2**20),
    community=texts,
)


@st.composite
def damaged(draw):
    """A valid message truncated, with bytes overwritten or inserted."""
    data = bytearray(reference_encode(draw(pdus)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data) - 1))
        if draw(st.booleans()):
            data[at] = draw(st.integers(0, 255))
        else:
            data.insert(at, draw(st.integers(0, 255)))
    return bytes(data[:draw(st.integers(0, len(data)))])


def _outcome(decode, data: bytes) -> Any:
    try:
        return decode(data)
    except (CodecError, UnicodeDecodeError):
        return CodecError


# -- lockstep -------------------------------------------------------------------------


@settings(max_examples=300)
@given(pdu=pdus)
def test_encoding_is_byte_identical(pdu):
    assert encode_message(pdu) == reference_encode(pdu)


@settings(max_examples=300)
@given(pdu=pdus)
def test_decoding_equals_reference(pdu):
    data = reference_encode(pdu)
    decoded = decode_message(data)
    assert decoded == reference_decode(data)
    assert type(decoded) is type(pdu)


@settings(max_examples=500)
@given(data=st.one_of(damaged(), st.binary(max_size=80)))
def test_damaged_input_decodes_or_fails_alike(data):
    assert _outcome(decode_message, data) == _outcome(reference_decode, data)


def test_long_form_lengths_match():
    pdu = GetResponse(request_id=2**33, community="c" * 300,
                      varbinds=[(Oid([1, 3, 6, 1, 4, 1, 20010, i]), "x" * 150)
                                for i in range(40)])
    data = encode_message(pdu)
    assert len(data) > 6000 and data == reference_encode(pdu)
    assert decode_message(data) == reference_decode(data) == pdu


def test_non_utf8_community_is_a_codec_error():
    data = bytearray(encode_message(GetRequest(request_id=1, community="ab")))
    at = data.index(b"ab")
    data[at] = 0xFF
    with pytest.raises(UnicodeDecodeError):
        reference_decode(bytes(data))
    with pytest.raises(CodecError):
        decode_message(bytes(data))


def test_oid_tables_stop_growing():
    from repro.snmp import pdu as codec

    for i in range(codec._OID_TABLE_MAX + 50):
        message = GetRequest(request_id=1,
                             varbinds=[(Oid([1, 3, 9, 9, i]), None)])
        decode_message(encode_message(message))
    assert len(codec._OID_BER) <= codec._OID_TABLE_MAX
    assert len(codec._OID_OF) <= codec._OID_TABLE_MAX
