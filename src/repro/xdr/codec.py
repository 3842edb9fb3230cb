"""XDR packer/unpacker per RFC 4506.

All quantities are big-endian and padded to 4-byte boundaries.  The
implementation is strict on decode: short buffers, nonzero padding, and
out-of-range discriminants raise :class:`XdrError` rather than being
silently tolerated — the server-side proxy depends on malformed input
being rejected cleanly.

A run of fixed-size fields (an NFS ``fattr3``, an RPC header) is one
precompiled :class:`struct.Struct`: :meth:`Packer.pack_struct` and
:meth:`Unpacker.unpack_struct` move the whole layout in one call with
the same range and bounds checks as the per-field methods.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class XdrError(Exception):
    """Malformed XDR data or out-of-range value."""


_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F32 = struct.Struct(">f")
_F64 = struct.Struct(">d")

#: zero padding by the number of bytes needed
_ZERO_PAD = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00")


def _pad(n: int) -> int:
    return (4 - (n & 3)) & 3


def _range_error(st: struct.Struct, exc: struct.error) -> XdrError:
    return XdrError(f"{st.format} out of range: {exc}")


def pack_fixed(st: struct.Struct, *values) -> bytes:
    """Encode one fixed layout; an out-of-range field raises XdrError."""
    try:
        return st.pack(*values)
    except struct.error as exc:
        raise _range_error(st, exc) from None


class Packer:
    """Accumulates XDR-encoded bytes."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def get_bytes(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(p) for p in self._parts)

    # -- integers --------------------------------------------------------

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

    def pack_float(self, v: float) -> None:
        self._parts.append(_F32.pack(v))

    def pack_double(self, v: float) -> None:
        self._parts.append(_F64.pack(v))

    def pack_struct(self, st: struct.Struct, *values) -> None:
        """A fixed layout in one call; an out-of-range field raises
        XdrError."""
        try:
            self._parts.append(st.pack(*values))
        except struct.error as exc:
            raise _range_error(st, exc) from None

    # -- opaques and strings ----------------------------------------------

    def _pack_body(self, data: bytes, n: int) -> None:
        # bytes are immutable, so they join as they are; other buffers
        # are frozen now so a later mutation cannot leak into the output
        self._parts.append(data if type(data) is bytes else bytes(data))
        if n & 3:
            self._parts.append(_ZERO_PAD[_pad(n)])

    def pack_fopaque(self, n: int, data: bytes) -> None:
        """Fixed-length opaque: exactly n bytes plus padding."""
        if len(data) != n:
            raise XdrError(f"fixed opaque wants {n} bytes, got {len(data)}")
        self._pack_body(data, n)

    def pack_opaque(self, data: bytes) -> None:
        """Variable-length opaque: length word, bytes, padding."""
        n = len(data)
        self.pack_uint(n)
        self._pack_body(data, n)

    def pack_string(self, s: str) -> None:
        self.pack_opaque(s.encode("utf-8"))

    # -- composites --------------------------------------------------------

    def pack_array(self, items: Sequence[T], pack_item: Callable[[T], None]) -> None:
        """Variable-length array: counted, then each element."""
        self.pack_uint(len(items))
        for item in items:
            pack_item(item)

    def pack_optional(self, value: Optional[T], pack_item: Callable[[T], None]) -> None:
        """XDR optional (``*`` pointer syntax): bool then value-if-present."""
        if value is None:
            self.pack_bool(False)
        else:
            self.pack_bool(True)
            pack_item(value)

    def pack_list(self, items: Sequence[T], pack_item: Callable[[T], None]) -> None:
        """XDR linked list: (TRUE item)* FALSE — used by READDIR replies."""
        for item in items:
            self.pack_bool(True)
            pack_item(item)
        self.pack_bool(False)


class Unpacker:
    """Consumes XDR-encoded bytes.

    Every read checks its bounds against the cached length before
    ``unpack_from`` reads in place, so no read copies more than the
    bytes it returns.
    """

    __slots__ = ("_data", "_pos", "_len")

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0
        self._len = len(self._data)

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return self._len - self._pos

    def done(self) -> bool:
        return self._pos >= self._len

    def assert_done(self) -> None:
        if not self.done():
            raise XdrError(f"{self.remaining()} trailing bytes after decode")

    def _underrun(self, n: int) -> XdrError:
        return XdrError(
            f"buffer underrun: need {n} bytes at offset {self._pos}, "
            f"have {self._len - self._pos}"
        )

    def unpack_struct(self, st: struct.Struct) -> tuple:
        """A fixed layout in one call: the tuple of its fields."""
        pos = self._pos
        end = pos + st.size
        if end > self._len:
            raise self._underrun(st.size)
        self._pos = end
        return st.unpack_from(self._data, pos)

    # -- integers --------------------------------------------------------

    def unpack_uint(self) -> int:
        pos = self._pos
        if pos + 4 > self._len:
            raise self._underrun(4)
        self._pos = pos + 4
        return _U32.unpack_from(self._data, pos)[0]

    def unpack_int(self) -> int:
        pos = self._pos
        if pos + 4 > self._len:
            raise self._underrun(4)
        self._pos = pos + 4
        return _I32.unpack_from(self._data, pos)[0]

    def unpack_uhyper(self) -> int:
        return self.unpack_struct(_U64)[0]

    def unpack_hyper(self) -> int:
        return self.unpack_struct(_I64)[0]

    def unpack_bool(self) -> bool:
        v = self.unpack_uint()
        if v not in (0, 1):
            raise XdrError(f"bool must be 0 or 1, got {v}")
        return v == 1

    def unpack_enum(self) -> int:
        return self.unpack_int()

    def unpack_float(self) -> float:
        return self.unpack_struct(_F32)[0]

    def unpack_double(self) -> float:
        return self.unpack_struct(_F64)[0]

    # -- opaques and strings -----------------------------------------------

    def unpack_fopaque(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if end > self._len:
            raise self._underrun(n)
        pad = _pad(n)
        if pad:
            self._pos = end
            if end + pad > self._len:
                raise self._underrun(pad)
            self._pos = end + pad
            if self._data[end : end + pad] != _ZERO_PAD[pad]:
                raise XdrError("nonzero padding bytes")
        else:
            self._pos = end
        return self._data[pos:end]

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

    # -- composites --------------------------------------------------------

    def unpack_array(self, unpack_item: Callable[[], T], max_len: Optional[int] = None) -> List[T]:
        n = self.unpack_uint()
        if max_len is not None and n > max_len:
            raise XdrError(f"array length {n} exceeds limit {max_len}")
        return [unpack_item() for _ in range(n)]

    def unpack_optional(self, unpack_item: Callable[[], T]) -> Optional[T]:
        return unpack_item() if self.unpack_bool() else None

    def unpack_list(self, unpack_item: Callable[[], T], max_len: int = 1_000_000) -> List[T]:
        out: List[T] = []
        while self.unpack_bool():
            out.append(unpack_item())
            if len(out) > max_len:
                raise XdrError("XDR list exceeds sanity limit")
        return out
