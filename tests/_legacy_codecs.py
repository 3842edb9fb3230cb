"""Reference copies of the field-by-field wire codecs.

The XDR, NFS-type, RPC-message, record-marking and keystream code in
``src/`` encodes each fixed layout with one precompiled ``struct``.
These are the per-field versions it replaced, kept verbatim (renamed,
and raising the same exception classes) so the equivalence tests can
check that every byte on the wire, every decoded value and every
rejected input is unchanged.  Nothing outside the tests imports this.
"""

from __future__ import annotations

import struct
from typing import List, Optional

import numpy as np

from repro.nfs.protocol import FHSIZE3, Fattr3, FileHandle
from repro.rpc.auth import AUTH_SYS, MAX_AUTH_BODY, AuthSys, OpaqueAuth
from repro.rpc.errors import RpcError
from repro.rpc.messages import (
    CALL,
    MSG_ACCEPTED,
    MSG_DENIED,
    PROG_MISMATCH,
    REPLY,
    RPC_MISMATCH,
    RPC_VERSION,
    SUCCESS,
    CallMessage,
    ReplyMessage,
)
from repro.xdr import XdrError

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")


def _pad(n: int) -> int:
    return (4 - (n & 3)) & 3


# -- XDR ---------------------------------------------------------------------


class OldPacker:
    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def get_bytes(self) -> bytes:
        return b"".join(self._parts)

    def pack_uint(self, v: int) -> None:
        if not 0 <= v <= 0xFFFFFFFF:
            raise XdrError(f"uint32 out of range: {v}")
        self._parts.append(_U32.pack(v))

    def pack_int(self, v: int) -> None:
        if not -0x80000000 <= v <= 0x7FFFFFFF:
            raise XdrError(f"int32 out of range: {v}")
        self._parts.append(_I32.pack(v))

    def pack_uhyper(self, v: int) -> None:
        if not 0 <= v <= 0xFFFFFFFFFFFFFFFF:
            raise XdrError(f"uint64 out of range: {v}")
        self._parts.append(_U64.pack(v))

    def pack_hyper(self, v: int) -> None:
        if not -(2**63) <= v <= 2**63 - 1:
            raise XdrError(f"int64 out of range: {v}")
        self._parts.append(_I64.pack(v))

    def pack_bool(self, v: bool) -> None:
        self.pack_uint(1 if v else 0)

    def pack_enum(self, v: int) -> None:
        self.pack_int(v)

    def pack_fopaque(self, n: int, data: bytes) -> None:
        if len(data) != n:
            raise XdrError(f"fixed opaque wants {n} bytes, got {len(data)}")
        self._parts.append(bytes(data) + b"\x00" * _pad(n))

    def pack_opaque(self, data: bytes) -> None:
        self.pack_uint(len(data))
        self._parts.append(bytes(data) + b"\x00" * _pad(len(data)))

    def pack_string(self, s: str) -> None:
        self.pack_opaque(s.encode("utf-8"))

    def pack_array(self, items, pack_item) -> None:
        self.pack_uint(len(items))
        for item in items:
            pack_item(item)

    def pack_optional(self, value, pack_item) -> None:
        if value is None:
            self.pack_bool(False)
        else:
            self.pack_bool(True)
            pack_item(value)


class OldUnpacker:
    def __init__(self, data: bytes):
        self._data = memoryview(bytes(data))
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def assert_done(self) -> None:
        if self._pos < len(self._data):
            raise XdrError(f"{self.remaining()} trailing bytes after decode")

    def _take(self, n: int) -> memoryview:
        if self._pos + n > len(self._data):
            raise XdrError(
                f"buffer underrun: need {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def unpack_uint(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def unpack_int(self) -> int:
        return _I32.unpack(self._take(4))[0]

    def unpack_uhyper(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def unpack_hyper(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def unpack_bool(self) -> bool:
        v = self.unpack_uint()
        if v not in (0, 1):
            raise XdrError(f"bool must be 0 or 1, got {v}")
        return bool(v)

    def unpack_enum(self) -> int:
        return self.unpack_int()

    def unpack_fopaque(self, n: int) -> bytes:
        data = bytes(self._take(n))
        pad = bytes(self._take(_pad(n)))
        if pad.strip(b"\x00"):
            raise XdrError("nonzero padding bytes")
        return data

    def unpack_opaque(self, max_len: Optional[int] = None) -> bytes:
        n = self.unpack_uint()
        if max_len is not None and n > max_len:
            raise XdrError(f"opaque length {n} exceeds limit {max_len}")
        return self.unpack_fopaque(n)

    def unpack_string(self, max_len: Optional[int] = None) -> str:
        raw = self.unpack_opaque(max_len)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XdrError(f"invalid UTF-8 in string: {exc}") from None

    def unpack_array(self, unpack_item, max_len: Optional[int] = None):
        n = self.unpack_uint()
        if max_len is not None and n > max_len:
            raise XdrError(f"array length {n} exceeds limit {max_len}")
        return [unpack_item() for _ in range(n)]

    def unpack_optional(self, unpack_item):
        return unpack_item() if self.unpack_bool() else None


# -- NFS types -----------------------------------------------------------------


def old_pack_fh(p: OldPacker, fh: FileHandle) -> None:
    p.pack_opaque(fh.to_bytes())


def old_unpack_fh(u: OldUnpacker) -> FileHandle:
    return FileHandle.from_bytes(u.unpack_opaque(max_len=FHSIZE3))


def _old_pack_time(p: OldPacker, t: float) -> None:
    sec = int(t)
    nsec = int(round((t - sec) * 1e9))
    if nsec >= 1_000_000_000:
        sec += 1
        nsec -= 1_000_000_000
    p.pack_uint(sec & 0xFFFFFFFF)
    p.pack_uint(nsec)


def _old_unpack_time(u: OldUnpacker) -> float:
    sec = u.unpack_uint()
    nsec = u.unpack_uint()
    return sec + nsec / 1e9


def old_pack_fattr3(p: OldPacker, a: Fattr3) -> None:
    p.pack_enum(a.ftype)
    p.pack_uint(a.mode)
    p.pack_uint(a.nlink)
    p.pack_uint(a.uid)
    p.pack_uint(a.gid)
    p.pack_uhyper(a.size)
    p.pack_uhyper(a.used)
    p.pack_uint(0)
    p.pack_uint(0)
    p.pack_uhyper(a.fsid)
    p.pack_uhyper(a.fileid)
    _old_pack_time(p, a.atime)
    _old_pack_time(p, a.mtime)
    _old_pack_time(p, a.ctime)


def old_unpack_fattr3(u: OldUnpacker) -> Fattr3:
    ftype = u.unpack_enum()
    mode = u.unpack_uint()
    nlink = u.unpack_uint()
    uid = u.unpack_uint()
    gid = u.unpack_uint()
    size = u.unpack_uhyper()
    used = u.unpack_uhyper()
    u.unpack_uint()
    u.unpack_uint()
    fsid = u.unpack_uhyper()
    fileid = u.unpack_uhyper()
    atime = _old_unpack_time(u)
    mtime = _old_unpack_time(u)
    ctime = _old_unpack_time(u)
    return Fattr3(ftype, mode, nlink, uid, gid, size, used, fsid, fileid,
                  atime, mtime, ctime)


def old_pack_post_op_attr(p: OldPacker, attr: Optional[Fattr3]) -> None:
    p.pack_optional(attr, lambda a: old_pack_fattr3(p, a))


def old_unpack_post_op_attr(u: OldUnpacker) -> Optional[Fattr3]:
    return u.unpack_optional(lambda: old_unpack_fattr3(u))


def old_pack_wcc_data(p: OldPacker, after: Optional[Fattr3]) -> None:
    p.pack_bool(False)
    old_pack_post_op_attr(p, after)


def old_unpack_wcc_data(u: OldUnpacker) -> Optional[Fattr3]:
    if u.unpack_bool():
        u.unpack_uhyper()
        _old_unpack_time(u)
        _old_unpack_time(u)
    return old_unpack_post_op_attr(u)


# -- RPC -------------------------------------------------------------------------


def old_pack_auth(p: OldPacker, auth: OpaqueAuth) -> None:
    if len(auth.body) > MAX_AUTH_BODY:
        raise XdrError(f"auth body {len(auth.body)} exceeds {MAX_AUTH_BODY}")
    p.pack_enum(auth.flavor)
    p.pack_opaque(auth.body)


def old_unpack_auth(u: OldUnpacker) -> OpaqueAuth:
    flavor = u.unpack_enum()
    body = u.unpack_opaque(max_len=MAX_AUTH_BODY)
    return OpaqueAuth(flavor, body)


def old_authsys_to_opaque(a: AuthSys) -> OpaqueAuth:
    p = OldPacker()
    p.pack_uint(a.stamp)
    p.pack_string(a.machinename)
    p.pack_uint(a.uid)
    p.pack_uint(a.gid)
    p.pack_array(a.gids, p.pack_uint)
    return OpaqueAuth(AUTH_SYS, p.get_bytes())


def old_authsys_from_opaque(auth: OpaqueAuth) -> AuthSys:
    if auth.flavor != AUTH_SYS:
        raise XdrError(f"not an AUTH_SYS credential (flavor={auth.flavor})")
    u = OldUnpacker(auth.body)
    stamp = u.unpack_uint()
    machinename = u.unpack_string(max_len=255)
    uid = u.unpack_uint()
    gid = u.unpack_uint()
    gids = u.unpack_array(u.unpack_uint, max_len=16)
    u.assert_done()
    return AuthSys(stamp, machinename, uid, gid, gids)


def old_call_encode(m: CallMessage) -> bytes:
    p = OldPacker()
    p.pack_uint(m.xid)
    p.pack_enum(CALL)
    p.pack_uint(RPC_VERSION)
    p.pack_uint(m.prog)
    p.pack_uint(m.vers)
    p.pack_uint(m.proc)
    old_pack_auth(p, m.cred)
    old_pack_auth(p, m.verf)
    return p.get_bytes() + m.args


def old_call_decode(record: bytes) -> CallMessage:
    u = OldUnpacker(record)
    xid = u.unpack_uint()
    mtype = u.unpack_enum()
    if mtype != CALL:
        raise RpcError(f"expected CALL, got msg_type={mtype}")
    rpcvers = u.unpack_uint()
    if rpcvers != RPC_VERSION:
        raise RpcError(f"unsupported RPC version {rpcvers}")
    prog = u.unpack_uint()
    vers = u.unpack_uint()
    proc = u.unpack_uint()
    cred = old_unpack_auth(u)
    verf = old_unpack_auth(u)
    args = bytes(record[u.position :])
    return CallMessage(xid, prog, vers, proc, cred, verf, args)


def old_reply_encode(m: ReplyMessage) -> bytes:
    p = OldPacker()
    p.pack_uint(m.xid)
    p.pack_enum(REPLY)
    p.pack_enum(m.reply_stat)
    if m.reply_stat == MSG_ACCEPTED:
        old_pack_auth(p, m.verf)
        p.pack_enum(m.accept_stat)
        if m.accept_stat == PROG_MISMATCH:
            p.pack_uint(m.mismatch_low)
            p.pack_uint(m.mismatch_high)
        return p.get_bytes() + (m.results if m.accept_stat == SUCCESS else b"")
    p.pack_enum(m.reject_stat)
    if m.reject_stat == RPC_MISMATCH:
        p.pack_uint(m.mismatch_low)
        p.pack_uint(m.mismatch_high)
    else:
        p.pack_enum(m.auth_stat)
    return p.get_bytes()


def old_reply_decode(record: bytes) -> ReplyMessage:
    u = OldUnpacker(record)
    xid = u.unpack_uint()
    mtype = u.unpack_enum()
    if mtype != REPLY:
        raise RpcError(f"expected REPLY, got msg_type={mtype}")
    reply_stat = u.unpack_enum()
    msg = ReplyMessage(xid, reply_stat)
    if reply_stat == MSG_ACCEPTED:
        msg.verf = old_unpack_auth(u)
        msg.accept_stat = u.unpack_enum()
        if msg.accept_stat == PROG_MISMATCH:
            msg.mismatch_low = u.unpack_uint()
            msg.mismatch_high = u.unpack_uint()
        elif msg.accept_stat == SUCCESS:
            msg.results = bytes(record[u.position :])
    elif reply_stat == MSG_DENIED:
        msg.reject_stat = u.unpack_enum()
        if msg.reject_stat == RPC_MISMATCH:
            msg.mismatch_low = u.unpack_uint()
            msg.mismatch_high = u.unpack_uint()
        else:
            msg.auth_stat = u.unpack_enum()
    else:
        raise RpcError(f"bad reply_stat {reply_stat}")
    return msg


# -- record marking ----------------------------------------------------------------

_HDR = struct.Struct(">I")
LAST_FRAGMENT = 0x80000000
MAX_FRAGMENT = 0x7FFFFFFF


def old_frame_record(record: bytes, fragment_size: int = 1 << 20) -> bytes:
    if fragment_size < 1 or fragment_size > MAX_FRAGMENT:
        raise RpcError(f"bad fragment size {fragment_size}")
    if len(record) == 0:
        return _HDR.pack(LAST_FRAGMENT)
    parts: List[bytes] = []
    for off in range(0, len(record), fragment_size):
        chunk = record[off : off + fragment_size]
        last = off + fragment_size >= len(record)
        parts.append(_HDR.pack((LAST_FRAGMENT if last else 0) | len(chunk)))
        parts.append(chunk)
    return b"".join(parts)


class OldRecordReader:
    def __init__(self, max_record: int = 256 * 1024 * 1024):
        self._buf = bytearray()
        self._records: List[bytes] = []
        self._current = bytearray()
        self._need: Optional[int] = None
        self._last = False
        self.max_record = max_record

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)
        self._drain()

    def _drain(self) -> None:
        while True:
            if self._need is None:
                if len(self._buf) < 4:
                    return
                hdr = _HDR.unpack(bytes(self._buf[:4]))[0]
                del self._buf[:4]
                self._last = bool(hdr & LAST_FRAGMENT)
                self._need = hdr & MAX_FRAGMENT
                if len(self._current) + self._need > self.max_record:
                    raise RpcError(
                        f"record exceeds {self.max_record} bytes; corrupt stream?"
                    )
            take = min(self._need, len(self._buf))
            if take:
                self._current.extend(self._buf[:take])
                del self._buf[:take]
                self._need -= take
            if self._need == 0:
                self._need = None
                if self._last:
                    self._records.append(bytes(self._current))
                    self._current.clear()
            else:
                return

    def next_record(self) -> Optional[bytes]:
        if self._records:
            return self._records.pop(0)
        return None


# -- keystream -------------------------------------------------------------------


def old_xor(pad: np.ndarray, data: bytes, off: int) -> tuple:
    """The FastXorState transform that tiled the pad for every record."""
    pad_len = len(pad)
    n = len(data)
    start = off % pad_len
    reps = (start + n + pad_len - 1) // pad_len
    keystream = np.tile(pad, reps)[start : start + n]
    out = np.bitwise_xor(np.frombuffer(data, dtype=np.uint8), keystream)
    return out.tobytes(), off + n


def outcome(fn, *args):
    """What a decoder makes of an input: its result, or the class of
    what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared by class, across both codecs
        return ("raised", type(exc))
