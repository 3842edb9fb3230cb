"""NFSv3 wire codecs: roundtrips for every procedure's args/results."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nfs import protocol as pr
from repro.nfs.protocol import Fattr3, FileHandle, NfsStatus, Sattr3
from repro.xdr import Packer, Unpacker, XdrError
from tests._legacy_codecs import (
    OldPacker,
    OldUnpacker,
    old_pack_fattr3,
    old_pack_fh,
    old_pack_post_op_attr,
    old_pack_wcc_data,
    old_unpack_fattr3,
    old_unpack_fh,
    old_unpack_post_op_attr,
    old_unpack_wcc_data,
    outcome,
)

FH = FileHandle(fsid=1, fileid=42, generation=7)
DIR_FH = FileHandle(fsid=1, fileid=1, generation=1)

ATTR = Fattr3(
    ftype=1, mode=0o644, nlink=1, uid=901, gid=901, size=1234, used=2048,
    fsid=1, fileid=42, atime=10.5, mtime=11.25, ctime=11.25,
)


def test_filehandle_roundtrip():
    assert FileHandle.from_bytes(FH.to_bytes()) == FH


def test_filehandle_bad_length_rejected():
    with pytest.raises(XdrError):
        FileHandle.from_bytes(b"short")


def test_fattr3_roundtrip():
    from repro.xdr import Packer, Unpacker

    p = Packer()
    ATTR.pack(p)
    back = Fattr3.unpack(Unpacker(p.get_bytes()))
    assert back == ATTR
    assert back.is_reg and not back.is_dir


def test_sattr3_roundtrip_all_fields():
    from repro.xdr import Packer, Unpacker

    s = Sattr3(mode=0o600, uid=5, gid=6, size=99, atime=1.5, mtime=2.5)
    p = Packer()
    s.pack(p)
    back = Sattr3.unpack(Unpacker(p.get_bytes()))
    assert back == s


def test_sattr3_roundtrip_empty():
    from repro.xdr import Packer, Unpacker

    p = Packer()
    Sattr3().pack(p)
    back = Sattr3.unpack(Unpacker(p.get_bytes()))
    assert back == Sattr3()


def test_getattr_codec():
    assert pr.unpack_getattr_args(pr.pack_getattr_args(FH)) == FH
    status, attr = pr.unpack_getattr_res(pr.pack_getattr_res(NfsStatus.OK, ATTR))
    assert status == NfsStatus.OK and attr == ATTR
    status, attr = pr.unpack_getattr_res(pr.pack_getattr_res(NfsStatus.STALE, None))
    assert status == NfsStatus.STALE and attr is None


def test_lookup_codec():
    args = pr.pack_lookup_args(DIR_FH, "file.txt")
    assert pr.unpack_lookup_args(args) == (DIR_FH, "file.txt")
    res = pr.pack_lookup_res(NfsStatus.OK, FH, ATTR, ATTR)
    status, fh, attr, dir_attr = pr.unpack_lookup_res(res)
    assert (status, fh, attr, dir_attr) == (NfsStatus.OK, FH, ATTR, ATTR)
    res = pr.pack_lookup_res(NfsStatus.NOENT, None, None, ATTR)
    status, fh, attr, dir_attr = pr.unpack_lookup_res(res)
    assert status == NfsStatus.NOENT and fh is None and dir_attr == ATTR


def test_access_codec():
    args = pr.pack_access_args(FH, pr.ACCESS_READ | pr.ACCESS_MODIFY)
    assert pr.unpack_access_args(args) == (FH, pr.ACCESS_READ | pr.ACCESS_MODIFY)
    res = pr.pack_access_res(NfsStatus.OK, ATTR, pr.ACCESS_READ)
    assert pr.unpack_access_res(res) == (NfsStatus.OK, ATTR, pr.ACCESS_READ)


def test_read_codec():
    args = pr.pack_read_args(FH, 65536, 32768)
    assert pr.unpack_read_args(args) == (FH, 65536, 32768)
    res = pr.pack_read_res(NfsStatus.OK, ATTR, b"payload", eof=True)
    status, attr, data, eof = pr.unpack_read_res(res)
    assert (status, data, eof) == (NfsStatus.OK, b"payload", True)


def test_read_res_count_mismatch_detected():
    good = pr.pack_read_res(NfsStatus.OK, ATTR, b"abcd", eof=False)
    # corrupt the count word (first word after attr block + status)
    from repro.xdr import Packer

    p = Packer()
    p.pack_enum(NfsStatus.OK)
    pr.pack_post_op_attr(p, ATTR)
    p.pack_uint(99)  # count that disagrees with the opaque
    p.pack_bool(False)
    p.pack_opaque(b"abcd")
    with pytest.raises(XdrError):
        pr.unpack_read_res(p.get_bytes())
    # and the good one parses
    pr.unpack_read_res(good)


def test_write_codec():
    args = pr.pack_write_args(FH, 0, b"datadata", pr.UNSTABLE)
    fh, offset, stable, payload = pr.unpack_write_args(args)
    assert (fh, offset, stable, payload) == (FH, 0, pr.UNSTABLE, b"datadata")
    res = pr.pack_write_res(NfsStatus.OK, ATTR, 8, pr.FILE_SYNC, b"verfverf")
    status, after, count, committed, verf = pr.unpack_write_res(res)
    assert (status, count, committed, verf) == (NfsStatus.OK, 8, pr.FILE_SYNC, b"verfverf")


def test_create_codec():
    args = pr.pack_create_args(DIR_FH, "new", Sattr3(mode=0o644), pr.GUARDED)
    dir_fh, name, mode, sattr = pr.unpack_create_args(args)
    assert (dir_fh, name, mode, sattr.mode) == (DIR_FH, "new", pr.GUARDED, 0o644)
    res = pr.pack_create_res(NfsStatus.OK, FH, ATTR, ATTR)
    status, fh, attr, dir_after = pr.unpack_create_res(res)
    assert (status, fh) == (NfsStatus.OK, FH)


def test_create_exclusive_carries_verf():
    args = pr.pack_create_args(DIR_FH, "x", Sattr3(), pr.EXCLUSIVE)
    _fh, _name, mode, _sattr = pr.unpack_create_args(args)
    assert mode == pr.EXCLUSIVE


def test_mkdir_symlink_codecs():
    args = pr.pack_mkdir_args(DIR_FH, "d", Sattr3(mode=0o755))
    assert pr.unpack_mkdir_args(args)[1] == "d"
    args = pr.pack_symlink_args(DIR_FH, "ln", "target", Sattr3())
    dir_fh, name, _sattr, target = pr.unpack_symlink_args(args)
    assert (name, target) == ("ln", "target")


def test_remove_rename_link_codecs():
    args = pr.pack_remove_args(DIR_FH, "gone")
    assert pr.unpack_remove_args(args) == (DIR_FH, "gone")
    res = pr.pack_remove_res(NfsStatus.OK, ATTR)
    assert pr.unpack_remove_res(res)[0] == NfsStatus.OK

    args = pr.pack_rename_args(DIR_FH, "a", DIR_FH, "b")
    assert pr.unpack_rename_args(args) == (DIR_FH, "a", DIR_FH, "b")

    args = pr.pack_link_args(FH, DIR_FH, "alias")
    assert pr.unpack_link_args(args) == (FH, DIR_FH, "alias")


@pytest.mark.parametrize("plus", [False, True])
def test_readdir_codec(plus):
    entries = [
        pr.DirEntry(10, "alpha", 1, ATTR if plus else None, FH if plus else None),
        pr.DirEntry(11, "beta", 2, ATTR if plus else None, FH if plus else None),
    ]
    res = pr.pack_readdir_res(NfsStatus.OK, ATTR, entries, eof=True, plus=plus)
    status, dir_attr, out, eof = pr.unpack_readdir_res(res, plus=plus)
    assert status == NfsStatus.OK and eof
    assert [e.name for e in out] == ["alpha", "beta"]
    if plus:
        assert out[0].handle == FH and out[0].attr == ATTR


def test_commit_codec():
    args = pr.pack_commit_args(FH, 4096, 8192)
    assert pr.unpack_commit_args(args) == (FH, 4096, 8192)
    res = pr.pack_commit_res(NfsStatus.OK, ATTR, b"12345678")
    status, _after, verf = pr.unpack_commit_res(res)
    assert (status, verf) == (NfsStatus.OK, b"12345678")


def test_fsinfo_fsstat_codecs():
    res = pr.pack_fsinfo_res(NfsStatus.OK, ATTR, 32768, 32768)
    status, rtmax, wtmax = pr.unpack_fsinfo_res(res)
    assert (status, rtmax, wtmax) == (NfsStatus.OK, 32768, 32768)
    res = pr.pack_fsstat_res(NfsStatus.OK, ATTR, 10**12, 10**11, 10**6)
    status, tbytes, fbytes, files = pr.unpack_fsstat_res(res)
    assert (tbytes, fbytes, files) == (10**12, 10**11, 10**6)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_read_args_roundtrip(offset, count):
    fh, off, cnt = pr.unpack_read_args(pr.pack_read_args(FH, offset, count))
    assert (fh, off, cnt) == (FH, offset, count)


@given(st.binary(max_size=1024), st.integers(min_value=0, max_value=2**40))
def test_property_write_args_roundtrip(payload, offset):
    fh, off, stable, data = pr.unpack_write_args(
        pr.pack_write_args(FH, offset, payload, pr.FILE_SYNC)
    )
    assert (off, data) == (offset, payload)


@given(st.text(min_size=1, max_size=80).filter(lambda s: "\x00" not in s))
def test_property_diropargs_roundtrip(name):
    dir_fh, out = pr.unpack_lookup_args(pr.pack_lookup_args(DIR_FH, name))
    assert out == name



# -- compiled layouts against the field-by-field codecs ----------------------------
#
# Fattr3, post_op_attr, wcc_data and the wire file handle are one struct
# each; tests/_legacy_codecs.py keeps the per-field codecs they replaced.

U32 = st.integers(min_value=0, max_value=2**32 - 1)
U64 = st.integers(min_value=0, max_value=2**64 - 1)
times = st.one_of(
    st.floats(min_value=0, max_value=2**33, allow_nan=False),
    st.builds(lambda s, ns: s + ns / 1e9, U32, st.integers(0, 999_999_999)),
)
attrs = st.builds(
    Fattr3,
    ftype=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    mode=U32, nlink=U32, uid=U32, gid=U32, size=U64, used=U64,
    fsid=U64, fileid=U64, atime=times, mtime=times, ctime=times,
)
handles = st.builds(FileHandle, fsid=U32, fileid=U64, generation=U32)


def encode(pack, packer, *args):
    pack(packer, *args)
    return packer.get_bytes()


def new_pack_fh(p, fh):
    fh.pack(p)


def new_pack_fattr3(p, a):
    a.pack(p)


def decode_new(data):
    u = Unpacker(data)
    out = (FileHandle.unpack(u), pr.unpack_post_op_attr(u), pr.unpack_wcc_data(u))
    u.assert_done()
    return out


def decode_old(data):
    u = OldUnpacker(data)
    out = (old_unpack_fh(u), old_unpack_post_op_attr(u), old_unpack_wcc_data(u))
    u.assert_done()
    return out


@given(attrs, st.none() | attrs, handles)
def test_compiled_layouts_encode_and_decode_as_before(attr, maybe, fh):
    assert encode(new_pack_fattr3, Packer(), attr) == encode(old_pack_fattr3, OldPacker(), attr)
    assert Fattr3.unpack(Unpacker(encode(old_pack_fattr3, OldPacker(), attr))) == \
        old_unpack_fattr3(OldUnpacker(encode(old_pack_fattr3, OldPacker(), attr)))
    for new, old in ((pr.pack_post_op_attr, old_pack_post_op_attr),
                     (pr.pack_wcc_data, old_pack_wcc_data)):
        assert encode(new, Packer(), maybe) == encode(old, OldPacker(), maybe)
    assert encode(new_pack_fh, Packer(), fh) == encode(old_pack_fh, OldPacker(), fh)
    p = OldPacker()
    old_pack_fh(p, fh)
    old_pack_post_op_attr(p, attr)
    old_pack_wcc_data(p, maybe)
    data = p.get_bytes()
    # times go through (seconds mod 2**32, nanoseconds): compare the two
    # decoders, not the float that went in
    assert decode_new(data) == decode_old(data)
    assert decode_new(data)[0] == fh


@settings(max_examples=25, deadline=None)
@given(attrs, st.none() | attrs, handles)
def test_compiled_layouts_reject_what_the_old_decoders_reject(attr, maybe, fh):
    p = OldPacker()
    old_pack_fh(p, fh)
    old_pack_post_op_attr(p, maybe)
    old_pack_wcc_data(p, attr)
    data = p.get_bytes()
    for cut in range(len(data)):
        assert outcome(decode_new, data[:cut]) == outcome(decode_old, data[:cut])
    # every byte: length word, bools (2 is not a bool), fields
    for pos in range(len(data)):
        for byte in (0x00, 0x01, 0x02, 0x10, 0xFF):
            bad = data[:pos] + bytes([byte]) + data[pos + 1:]
            assert outcome(decode_new, bad) == outcome(decode_old, bad), (pos, byte)


@given(st.booleans(), U64, times, times, st.none() | attrs)
def test_wcc_data_with_pre_op_attrs_decodes_as_before(pre, size, mtime, ctime, after):
    p = OldPacker()
    p.pack_bool(pre)
    if pre:
        p.pack_uhyper(size)
        for t in (mtime, ctime):
            sec = int(t)
            p.pack_uint(sec & 0xFFFFFFFF)
            p.pack_uint(min(int(round((t - sec) * 1e9)), 999_999_999))
    old_pack_post_op_attr(p, after)
    data = p.get_bytes()
    assert pr.unpack_wcc_data(Unpacker(data)) == old_unpack_wcc_data(OldUnpacker(data))


@given(
    st.integers(min_value=0, max_value=80) | st.just(16),
    st.binary(min_size=80, max_size=80),
    st.integers(min_value=0, max_value=4),
)
def test_filehandle_of_any_length_decodes_as_before(n, body, cut):
    """Any length but 16 raises XdrError at once, as the opaque limit
    (over 64) or the handle size (the rest) rejected it before."""
    p = OldPacker()
    p.pack_uint(n)
    raw = p.get_bytes() + body[:n] + b"\x00" * (-n & 3)
    data = raw[:len(raw) - cut]

    def new(d):
        return FileHandle.unpack(Unpacker(d))

    def old(d):
        return old_unpack_fh(OldUnpacker(d))

    assert outcome(new, data) == outcome(old, data)
    if n != 16:
        assert outcome(new, data)[0] == "raised"


@given(handles)
def test_post_op_fh_encodes_as_before(fh):
    for value in (None, fh):
        p = Packer()
        pr._pack_post_op_fh(p, value)
        old = OldPacker()
        old.pack_optional(value, lambda f: old_pack_fh(old, f))
        assert p.get_bytes() == old.get_bytes()
        assert pr._unpack_post_op_fh(Unpacker(p.get_bytes())) == value


@pytest.mark.parametrize("field,value", [
    ("mode", -1), ("uid", 2**32), ("size", 2**64), ("fileid", -1),
    ("ftype", 2**31), ("atime", -0.5),
])
def test_fattr3_out_of_range_raises_xdr_error(field, value):
    bad = Fattr3(**{**ATTR.__dict__, field: value})
    for pack in (lambda p: bad.pack(p), lambda p: pr.pack_post_op_attr(p, bad),
                 lambda p: pr.pack_wcc_data(p, bad)):
        with pytest.raises(XdrError):
            pack(Packer())
    with pytest.raises(XdrError):
        old_pack_fattr3(OldPacker(), bad)


@pytest.mark.parametrize("fh", [
    FileHandle(2**32, 1, 1), FileHandle(1, 2**64, 1), FileHandle(1, 1, -1),
])
def test_filehandle_out_of_range_raises_xdr_error(fh):
    with pytest.raises(XdrError):
        fh.pack(Packer())
