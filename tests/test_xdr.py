"""XDR codec: RFC 4506 semantics, strictness, property-based roundtrips."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.xdr import Packer, Unpacker, XdrError, pack_fixed
from tests._legacy_codecs import OldPacker, OldUnpacker, outcome


def roundtrip(pack, unpack):
    p = Packer()
    pack(p)
    u = Unpacker(p.get_bytes())
    out = unpack(u)
    u.assert_done()
    return out


# -- fixed encodings (wire compatibility) ---------------------------------------


def test_uint_encoding_is_big_endian():
    p = Packer()
    p.pack_uint(0x01020304)
    assert p.get_bytes() == b"\x01\x02\x03\x04"


def test_int_negative_twos_complement():
    p = Packer()
    p.pack_int(-1)
    assert p.get_bytes() == b"\xff\xff\xff\xff"


def test_string_padded_to_four_bytes():
    p = Packer()
    p.pack_string("abcde")
    assert p.get_bytes() == b"\x00\x00\x00\x05abcde\x00\x00\x00"


def test_bool_is_one_word():
    p = Packer()
    p.pack_bool(True)
    p.pack_bool(False)
    assert p.get_bytes() == b"\x00\x00\x00\x01\x00\x00\x00\x00"


def test_hyper_is_eight_bytes():
    p = Packer()
    p.pack_uhyper(2**40)
    assert len(p.get_bytes()) == 8


# -- range and error handling ----------------------------------------------------


@pytest.mark.parametrize("value", [-1, 2**32])
def test_uint_out_of_range(value):
    with pytest.raises(XdrError):
        Packer().pack_uint(value)


@pytest.mark.parametrize("value", [-(2**31) - 1, 2**31])
def test_int_out_of_range(value):
    with pytest.raises(XdrError):
        Packer().pack_int(value)


def test_underrun_detected():
    u = Unpacker(b"\x00\x00")
    with pytest.raises(XdrError, match="underrun"):
        u.unpack_uint()


def test_trailing_bytes_detected():
    u = Unpacker(b"\x00\x00\x00\x01\xff")
    u.unpack_uint()
    with pytest.raises(XdrError, match="trailing"):
        u.assert_done()


def test_nonzero_padding_rejected():
    # string "a" with garbage in the padding
    data = b"\x00\x00\x00\x01a\x01\x00\x00"
    with pytest.raises(XdrError, match="padding"):
        Unpacker(data).unpack_string()


def test_bool_strictness():
    u = Unpacker(b"\x00\x00\x00\x02")
    with pytest.raises(XdrError):
        u.unpack_bool()


def test_opaque_length_limit():
    p = Packer()
    p.pack_opaque(b"x" * 100)
    with pytest.raises(XdrError, match="exceeds"):
        Unpacker(p.get_bytes()).unpack_opaque(max_len=10)


def test_string_invalid_utf8_rejected():
    p = Packer()
    p.pack_opaque(b"\xff\xfe")
    with pytest.raises(XdrError, match="UTF-8"):
        Unpacker(p.get_bytes()).unpack_string()


def test_fopaque_length_mismatch_on_pack():
    with pytest.raises(XdrError):
        Packer().pack_fopaque(4, b"abc")


def test_array_length_limit():
    p = Packer()
    p.pack_array([1, 2, 3], p.pack_uint)
    u = Unpacker(p.get_bytes())
    with pytest.raises(XdrError):
        u.unpack_array(u.unpack_uint, max_len=2)


# -- composites --------------------------------------------------------------------


def test_optional_roundtrip():
    def pack(p):
        p.pack_optional(None, p.pack_uint)
        p.pack_optional(7, p.pack_uint)

    def unpack(u):
        return u.unpack_optional(u.unpack_uint), u.unpack_optional(u.unpack_uint)

    assert roundtrip(pack, unpack) == (None, 7)


def test_list_roundtrip():
    def pack(p):
        p.pack_list(["x", "y", "z"], p.pack_string)

    def unpack(u):
        return u.unpack_list(u.unpack_string)

    assert roundtrip(pack, unpack) == ["x", "y", "z"]


# -- property-based roundtrips -------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_uint_roundtrip(v):
    assert roundtrip(lambda p: p.pack_uint(v), lambda u: u.unpack_uint()) == v


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_int_roundtrip(v):
    assert roundtrip(lambda p: p.pack_int(v), lambda u: u.unpack_int()) == v


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uhyper_roundtrip(v):
    assert roundtrip(lambda p: p.pack_uhyper(v), lambda u: u.unpack_uhyper()) == v


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_hyper_roundtrip(v):
    assert roundtrip(lambda p: p.pack_hyper(v), lambda u: u.unpack_hyper()) == v


@given(st.binary(max_size=300))
def test_opaque_roundtrip(v):
    assert roundtrip(lambda p: p.pack_opaque(v), lambda u: u.unpack_opaque()) == v
    # encoding is always word-aligned
    p = Packer()
    p.pack_opaque(v)
    assert len(p.get_bytes()) % 4 == 0


@given(st.text(max_size=120))
def test_string_roundtrip(v):
    assert roundtrip(lambda p: p.pack_string(v), lambda u: u.unpack_string()) == v


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=40))
def test_uint_array_roundtrip(v):
    assert roundtrip(
        lambda p: p.pack_array(v, p.pack_uint),
        lambda u: u.unpack_array(u.unpack_uint),
    ) == v


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_double_roundtrip(v):
    assert roundtrip(lambda p: p.pack_double(v), lambda u: u.unpack_double()) == v


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=32))
def test_concatenated_fields_roundtrip(blob, n):
    def pack(p):
        p.pack_uint(n)
        p.pack_opaque(blob)
        p.pack_bool(bool(n % 2))

    def unpack(u):
        return u.unpack_uint(), u.unpack_opaque(), u.unpack_bool()

    assert roundtrip(pack, unpack) == (n, blob, bool(n % 2))


# -- equivalence with the field-by-field codec -----------------------------------
#
# The codec reads in place with ``unpack_from`` and moves fixed layouts
# with one ``struct`` call; tests/_legacy_codecs.py keeps the per-word
# codec it replaced.  Same bytes, same values, same rejections.

#: (field kind, value strategy); the kinds name Packer/Unpacker methods
FIELD_KINDS = {
    "uint": st.integers(min_value=0, max_value=2**32 - 1),
    "int": st.integers(min_value=-(2**31), max_value=2**31 - 1),
    "uhyper": st.integers(min_value=0, max_value=2**64 - 1),
    "hyper": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "bool": st.booleans(),
    "opaque": st.binary(max_size=13),
    "string": st.text(max_size=7),
    "fopaque5": st.binary(min_size=5, max_size=5),
}
fields = st.lists(
    st.sampled_from(sorted(FIELD_KINDS)).flatmap(
        lambda kind: st.tuples(st.just(kind), FIELD_KINDS[kind])
    ),
    max_size=8,
)


def pack_fields(packer, spec):
    for kind, value in spec:
        if kind == "fopaque5":
            packer.pack_fopaque(5, value)
        else:
            getattr(packer, "pack_" + kind)(value)
    return packer.get_bytes()


def decode_fields(unpacker_cls, kinds, data):
    u = unpacker_cls(data)
    out = [u.unpack_fopaque(5) if k == "fopaque5" else getattr(u, "unpack_" + k)()
           for k in kinds]
    u.assert_done()
    return out


@given(fields)
def test_fields_match_the_field_by_field_codec(spec):
    data = pack_fields(Packer(), spec)
    assert data == pack_fields(OldPacker(), spec)
    kinds = [k for k, _v in spec]
    assert decode_fields(Unpacker, kinds, data) == [v for _k, v in spec]
    # every truncation and every single-byte mutation is rejected (or
    # accepted) exactly as the per-word decoder does
    for cut in range(len(data)):
        assert (outcome(decode_fields, Unpacker, kinds, data[:cut])
                == outcome(decode_fields, OldUnpacker, kinds, data[:cut]))
    for pos in range(len(data)):
        for byte in (0x00, 0x01, 0x02, 0x80, 0xFF):
            bad = data[:pos] + bytes([byte]) + data[pos + 1:]
            assert (outcome(decode_fields, Unpacker, kinds, bad)
                    == outcome(decode_fields, OldUnpacker, kinds, bad))


def test_decoded_opaque_is_bytes_whatever_the_input_buffer():
    p = Packer()
    p.pack_opaque(b"abcde")
    for buf in (p.get_bytes(), bytearray(p.get_bytes()), memoryview(p.get_bytes())):
        out = Unpacker(buf).unpack_opaque()
        assert type(out) is bytes and out == b"abcde"


def test_packed_buffers_are_frozen_at_pack_time():
    data = bytearray(b"abc")
    p = Packer()
    p.pack_opaque(data)
    p.pack_fopaque(3, data)
    data[:] = b"xyz"
    assert p.get_bytes() == b"\x00\x00\x00\x03abc\x00abc\x00"


STRUCT_CODES = {
    "I": st.integers(min_value=0, max_value=2**32 - 1),
    "i": st.integers(min_value=-(2**31), max_value=2**31 - 1),
    "Q": st.integers(min_value=0, max_value=2**64 - 1),
    "q": st.integers(min_value=-(2**63), max_value=2**63 - 1),
}
PER_FIELD = {"I": "uint", "i": "int", "Q": "uhyper", "q": "hyper"}
layouts = st.lists(
    st.sampled_from(sorted(STRUCT_CODES)).flatmap(
        lambda c: st.tuples(st.just(c), STRUCT_CODES[c])
    ),
    min_size=1, max_size=10,
)


@given(layouts)
def test_struct_layout_matches_per_field_calls(layout):
    st_ = struct.Struct(">" + "".join(c for c, _v in layout))
    values = tuple(v for _c, v in layout)
    p = Packer()
    p.pack_struct(st_, *values)
    old = OldPacker()
    for c, v in layout:
        getattr(old, "pack_" + PER_FIELD[c])(v)
    data = p.get_bytes()
    assert data == old.get_bytes()
    assert Unpacker(data).unpack_struct(st_) == values
    for cut in range(len(data)):
        with pytest.raises(XdrError, match="underrun"):
            Unpacker(data[:cut]).unpack_struct(st_)


@pytest.mark.parametrize("code,value", [
    ("I", -1), ("I", 2**32), ("i", 2**31), ("i", -(2**31) - 1),
    ("Q", -1), ("Q", 2**64), ("q", 2**63),
])
def test_struct_out_of_range_raises_xdr_error(code, value):
    st_ = struct.Struct(">I" + code)
    with pytest.raises(XdrError):
        Packer().pack_struct(st_, 0, value)
    with pytest.raises(XdrError):
        pack_fixed(st_, 0, value)


def test_unpack_struct_reads_at_the_cursor():
    u = Unpacker(b"\x00\x00\x00\x07" + struct.pack(">IQ", 1, 2))
    assert u.unpack_uint() == 7
    assert u.unpack_struct(struct.Struct(">IQ")) == (1, 2)
    assert u.done()
