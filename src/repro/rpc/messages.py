"""RPC CALL and REPLY message encode/decode (RFC 1831 §8).

Messages carry their procedure arguments/results as raw bytes: the
program layer (NFS) packs/unpacks those separately.  That split is what
lets the SGFS proxies forward and rewrite messages without understanding
every procedure — they only re-encode the credential when doing identity
mapping.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NoReturn, Optional

from repro.rpc.auth import AUTH_NONE, OpaqueAuth, NULL_AUTH
from repro.rpc.errors import (
    RpcAuthError,
    RpcError,
    RpcGarbageArgs,
    RpcProcUnavail,
    RpcProgMismatch,
    RpcProgUnavail,
    RpcSystemError,
)
from repro.xdr import Packer, Unpacker, pack_fixed

RPC_VERSION = 2

# msg_type
CALL = 0
REPLY = 1

# reply_stat
MSG_ACCEPTED = 0
MSG_DENIED = 1

# accept_stat
SUCCESS = 0
PROG_UNAVAIL = 1
PROG_MISMATCH = 2
PROC_UNAVAIL = 3
GARBAGE_ARGS = 4
SYSTEM_ERR = 5

# reject_stat
RPC_MISMATCH = 0
AUTH_ERROR = 1

# auth_stat (subset)
AUTH_OK = 0
AUTH_BADCRED = 1
AUTH_REJECTEDCRED = 2
AUTH_BADVERF = 3
AUTH_TOOWEAK = 5

#: CALL head: xid, msg_type, rpcvers, prog, vers, proc
_CALL_HEAD = struct.Struct(">IiIIII")
_CALL_PROGRAM = struct.Struct(">III")  # its last three words
#: accepted SUCCESS reply with a null verifier: xid, msg_type,
#: reply_stat, verifier flavor and length, accept_stat
_SUCCESS_HEAD = struct.Struct(">IiiiIi")
_SUCCESS_WORDS = (REPLY, MSG_ACCEPTED, AUTH_NONE, 0, SUCCESS)


def _check_msg_type(mtype: int, want: int) -> None:
    if mtype != want:
        name = "CALL" if want == CALL else "REPLY"
        raise RpcError(f"expected {name}, got msg_type={mtype}")


def _check_rpcvers(rpcvers: int) -> None:
    if rpcvers != RPC_VERSION:
        raise RpcError(f"unsupported RPC version {rpcvers}")


def _short_call_head(u: Unpacker) -> NoReturn:
    """Reject a record too short for the CALL head on the first field
    that is wrong or missing, as a field-by-field read does."""
    u.unpack_uint()
    _check_msg_type(u.unpack_enum(), CALL)
    _check_rpcvers(u.unpack_uint())
    u.unpack_struct(_CALL_PROGRAM)  # fewer than 12 bytes are left
    raise AssertionError("unreachable: the CALL head was cut short")


@dataclass
class CallMessage:
    xid: int
    prog: int
    vers: int
    proc: int
    cred: OpaqueAuth = NULL_AUTH
    verf: OpaqueAuth = NULL_AUTH
    args: bytes = b""

    def encode(self) -> bytes:
        p = Packer()
        p.pack_struct(_CALL_HEAD, self.xid, CALL, RPC_VERSION, self.prog,
                      self.vers, self.proc)
        self.cred.pack(p)
        self.verf.pack(p)
        return p.get_bytes() + self.args

    @classmethod
    def decode(cls, record: bytes) -> "CallMessage":
        u = Unpacker(record)
        if u.remaining() < _CALL_HEAD.size:
            _short_call_head(u)
        xid, mtype, rpcvers, prog, vers, proc = u.unpack_struct(_CALL_HEAD)
        _check_msg_type(mtype, CALL)
        _check_rpcvers(rpcvers)
        cred = OpaqueAuth.unpack(u)
        verf = OpaqueAuth.unpack(u)
        args = bytes(record[u.position :])
        return cls(xid, prog, vers, proc, cred, verf, args)

    def with_cred(self, cred: OpaqueAuth) -> "CallMessage":
        """A copy with a replaced credential — used by identity mapping."""
        return CallMessage(self.xid, self.prog, self.vers, self.proc, cred, self.verf, self.args)


@dataclass
class ReplyMessage:
    xid: int
    reply_stat: int = MSG_ACCEPTED
    accept_stat: int = SUCCESS
    reject_stat: int = 0
    auth_stat: int = 0
    verf: OpaqueAuth = NULL_AUTH
    mismatch_low: int = 0
    mismatch_high: int = 0
    results: bytes = b""

    def encode(self) -> bytes:
        verf = self.verf
        if (self.reply_stat == MSG_ACCEPTED and self.accept_stat == SUCCESS
                and verf.flavor == AUTH_NONE and not verf.body):
            return pack_fixed(_SUCCESS_HEAD, self.xid, *_SUCCESS_WORDS) + self.results
        p = Packer()
        p.pack_uint(self.xid)
        p.pack_enum(REPLY)
        p.pack_enum(self.reply_stat)
        if self.reply_stat == MSG_ACCEPTED:
            self.verf.pack(p)
            p.pack_enum(self.accept_stat)
            if self.accept_stat == PROG_MISMATCH:
                p.pack_uint(self.mismatch_low)
                p.pack_uint(self.mismatch_high)
            return p.get_bytes() + (self.results if self.accept_stat == SUCCESS else b"")
        # MSG_DENIED
        p.pack_enum(self.reject_stat)
        if self.reject_stat == RPC_MISMATCH:
            p.pack_uint(self.mismatch_low)
            p.pack_uint(self.mismatch_high)
        else:  # AUTH_ERROR
            p.pack_enum(self.auth_stat)
        return p.get_bytes()

    @classmethod
    def decode(cls, record: bytes) -> "ReplyMessage":
        if len(record) >= _SUCCESS_HEAD.size:
            head = _SUCCESS_HEAD.unpack_from(record)
            if head[1:] == _SUCCESS_WORDS:
                return cls(head[0], results=bytes(record[_SUCCESS_HEAD.size :]))
        u = Unpacker(record)
        xid = u.unpack_uint()
        _check_msg_type(u.unpack_enum(), REPLY)
        reply_stat = u.unpack_enum()
        msg = cls(xid, reply_stat)
        if reply_stat == MSG_ACCEPTED:
            msg.verf = OpaqueAuth.unpack(u)
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

    def raise_for_status(self) -> None:
        """Raise the matching RpcError subclass unless SUCCESS."""
        if self.reply_stat == MSG_DENIED:
            if self.reject_stat == RPC_MISMATCH:
                raise RpcError("RPC version rejected by server")
            raise RpcAuthError(self.auth_stat)
        if self.accept_stat == SUCCESS:
            return
        if self.accept_stat == PROG_UNAVAIL:
            raise RpcProgUnavail("program unavailable")
        if self.accept_stat == PROG_MISMATCH:
            raise RpcProgMismatch(self.mismatch_low, self.mismatch_high)
        if self.accept_stat == PROC_UNAVAIL:
            raise RpcProcUnavail("procedure unavailable")
        if self.accept_stat == GARBAGE_ARGS:
            raise RpcGarbageArgs("server could not decode arguments")
        raise RpcSystemError(f"server error (accept_stat={self.accept_stat})")


def success_reply(xid: int, results: bytes) -> ReplyMessage:
    return ReplyMessage(xid=xid, results=results)


def error_reply(xid: int, accept_stat: int) -> ReplyMessage:
    return ReplyMessage(xid=xid, accept_stat=accept_stat)


def denied_reply(xid: int, auth_stat: int) -> ReplyMessage:
    return ReplyMessage(
        xid=xid, reply_stat=MSG_DENIED, reject_stat=AUTH_ERROR, auth_stat=auth_stat
    )
