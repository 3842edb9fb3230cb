"""RPC authentication flavors (RFC 1831 §9).

NFS v2/v3 deployments near-universally use AUTH_SYS (UNIX-style uid/gid
credentials), which is exactly the weakness the paper's introduction
calls out: the credentials are plain integers anyone can forge.  SGFS
keeps AUTH_SYS in the inner RPC messages — the proxies still need the
uid/gid for identity mapping — but moves *actual* authentication to the
certificate handshake of the secure transport.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from repro.xdr import Packer, Unpacker, XdrError

AUTH_NONE = 0
AUTH_SYS = 1  # a.k.a. AUTH_UNIX

#: RFC 1831 limit on opaque auth bodies.
MAX_AUTH_BODY = 400

#: opaque_auth head: flavor, body length
_AUTH_HEAD = struct.Struct(">iI")
#: AUTH_SYS after the machine name: uid, gid, number of gids
_SYS_IDS = struct.Struct(">III")
#: AUTH_SYS decoders read at most this many supplementary gids
MAX_GIDS = 16
_GIDS = [struct.Struct(f">{n}I") for n in range(MAX_GIDS + 1)]


@dataclass(frozen=True)
class OpaqueAuth:
    """A (flavor, body) pair as it appears on the wire."""

    flavor: int = AUTH_NONE
    body: bytes = b""

    def pack(self, p: Packer) -> None:
        n = len(self.body)
        if n > MAX_AUTH_BODY:
            raise XdrError(f"auth body {n} exceeds {MAX_AUTH_BODY}")
        p.pack_struct(_AUTH_HEAD, self.flavor, n)
        p.pack_fopaque(n, self.body)

    @classmethod
    def unpack(cls, u: Unpacker) -> "OpaqueAuth":
        flavor, n = u.unpack_struct(_AUTH_HEAD)
        if n > MAX_AUTH_BODY:
            raise XdrError(f"opaque length {n} exceeds limit {MAX_AUTH_BODY}")
        return cls(flavor, u.unpack_fopaque(n))


NULL_AUTH = OpaqueAuth()


@dataclass(frozen=True)
class AuthSys:
    """AUTH_SYS credential contents."""

    stamp: int = 0
    machinename: str = "localhost"
    uid: int = 65534  # nobody
    gid: int = 65534
    gids: List[int] = field(default_factory=list)

    def to_opaque(self) -> OpaqueAuth:
        p = Packer()
        p.pack_uint(self.stamp)
        p.pack_string(self.machinename)
        n = len(self.gids)
        p.pack_struct(_SYS_IDS, self.uid, self.gid, n)
        p.pack_struct(_GIDS[n] if n <= MAX_GIDS else struct.Struct(f">{n}I"),
                      *self.gids)
        return OpaqueAuth(AUTH_SYS, p.get_bytes())

    @classmethod
    def from_opaque(cls, auth: OpaqueAuth) -> "AuthSys":
        if auth.flavor != AUTH_SYS:
            raise XdrError(f"not an AUTH_SYS credential (flavor={auth.flavor})")
        u = Unpacker(auth.body)
        stamp = u.unpack_uint()
        machinename = u.unpack_string(max_len=255)
        uid, gid, n = u.unpack_struct(_SYS_IDS)
        if n > MAX_GIDS:
            raise XdrError(f"array length {n} exceeds limit {MAX_GIDS}")
        gids = list(u.unpack_struct(_GIDS[n]))
        u.assert_done()
        return cls(stamp, machinename, uid, gid, gids)

    def with_identity(self, uid: int, gid: int) -> "AuthSys":
        """A copy with remapped uid/gid — the proxy's identity mapping."""
        return AuthSys(self.stamp, self.machinename, uid, gid, list(self.gids))
