"""RPC CALL/REPLY message codecs and error mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rpc import CallMessage, ReplyMessage, MSG_DENIED, SUCCESS
from repro.rpc.auth import AUTH_SYS, AuthSys, OpaqueAuth, MAX_AUTH_BODY
from repro.rpc.errors import (
    RpcAuthError,
    RpcError,
    RpcGarbageArgs,
    RpcProcUnavail,
    RpcProgMismatch,
    RpcProgUnavail,
    RpcSystemError,
)
from repro.rpc.messages import (
    AUTH_BADCRED,
    GARBAGE_ARGS,
    PROC_UNAVAIL,
    PROG_MISMATCH,
    PROG_UNAVAIL,
    SYSTEM_ERR,
    denied_reply,
    error_reply,
    success_reply,
)
from repro.rpc.messages import (
    AUTH_ERROR,
    MSG_ACCEPTED,
    RPC_MISMATCH,
)
from repro.xdr import XdrError
from tests._legacy_codecs import (
    old_authsys_from_opaque,
    old_authsys_to_opaque,
    old_call_decode,
    old_call_encode,
    old_reply_decode,
    old_reply_encode,
    outcome,
)


def test_call_roundtrip():
    cred = AuthSys(uid=42, gid=43, gids=[1, 2, 3]).to_opaque()
    call = CallMessage(7, 100003, 3, 6, cred=cred, args=b"\x00\x01\x02\x03")
    decoded = CallMessage.decode(call.encode())
    assert decoded.xid == 7
    assert (decoded.prog, decoded.vers, decoded.proc) == (100003, 3, 6)
    assert decoded.args == b"\x00\x01\x02\x03"
    auth = AuthSys.from_opaque(decoded.cred)
    assert (auth.uid, auth.gid, auth.gids) == (42, 43, [1, 2, 3])


def test_reply_is_not_a_call():
    reply = success_reply(9, b"")
    with pytest.raises(RpcError, match="expected CALL"):
        CallMessage.decode(reply.encode())


def test_call_is_not_a_reply():
    call = CallMessage(1, 1, 1, 0)
    with pytest.raises(RpcError, match="expected REPLY"):
        ReplyMessage.decode(call.encode())


def test_success_reply_roundtrip():
    reply = success_reply(11, b"results here")
    decoded = ReplyMessage.decode(reply.encode())
    assert decoded.xid == 11
    assert decoded.accept_stat == SUCCESS
    assert decoded.results == b"results here"
    decoded.raise_for_status()  # no exception


@pytest.mark.parametrize(
    "stat,exc",
    [
        (PROG_UNAVAIL, RpcProgUnavail),
        (PROC_UNAVAIL, RpcProcUnavail),
        (GARBAGE_ARGS, RpcGarbageArgs),
        (SYSTEM_ERR, RpcSystemError),
    ],
)
def test_error_replies_map_to_exceptions(stat, exc):
    decoded = ReplyMessage.decode(error_reply(5, stat).encode())
    with pytest.raises(exc):
        decoded.raise_for_status()


def test_prog_mismatch_carries_versions():
    reply = error_reply(5, PROG_MISMATCH)
    reply.mismatch_low, reply.mismatch_high = 2, 4
    decoded = ReplyMessage.decode(reply.encode())
    with pytest.raises(RpcProgMismatch) as info:
        decoded.raise_for_status()
    assert (info.value.low, info.value.high) == (2, 4)


def test_denied_reply_roundtrip():
    decoded = ReplyMessage.decode(denied_reply(3, AUTH_BADCRED).encode())
    assert decoded.reply_stat == MSG_DENIED
    with pytest.raises(RpcAuthError) as info:
        decoded.raise_for_status()
    assert info.value.stat == AUTH_BADCRED


def test_with_cred_rewrites_only_credentials():
    original = CallMessage(1, 2, 3, 4, cred=AuthSys(uid=10, gid=10).to_opaque(), args=b"zz")
    remapped = original.with_cred(AuthSys(uid=901, gid=901).to_opaque())
    assert remapped.xid == original.xid
    assert remapped.args == original.args
    assert AuthSys.from_opaque(remapped.cred).uid == 901
    assert AuthSys.from_opaque(original.cred).uid == 10


def test_auth_body_size_limit():
    big = OpaqueAuth(AUTH_SYS, b"x" * (MAX_AUTH_BODY + 1))
    call = CallMessage(1, 2, 3, 4, cred=big)
    with pytest.raises(XdrError):
        call.encode()


def test_auth_sys_wrong_flavor_rejected():
    with pytest.raises(XdrError):
        AuthSys.from_opaque(OpaqueAuth(0, b""))


def test_auth_sys_with_identity():
    base = AuthSys(uid=5001, gid=5001, machinename="client", gids=[7])
    mapped = base.with_identity(901, 901)
    assert (mapped.uid, mapped.gid) == (901, 901)
    assert mapped.machinename == "client"
    assert mapped.gids == [7]


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.binary(max_size=200),
)
def test_property_call_roundtrip(xid, prog, proc, args):
    call = CallMessage(xid, prog, 3, proc, args=args)
    decoded = CallMessage.decode(call.encode())
    assert (decoded.xid, decoded.prog, decoded.proc, decoded.args) == (
        xid, prog, proc, args,
    )


@given(st.integers(min_value=0, max_value=2**32 - 1), st.binary(max_size=200))
def test_property_reply_roundtrip(xid, results):
    decoded = ReplyMessage.decode(success_reply(xid, results).encode())
    assert (decoded.xid, decoded.results) == (xid, results)



# -- compiled headers against the field-by-field codecs -----------------------------
#
# The CALL head and the accepted-SUCCESS reply with a null verifier are
# one struct each, and opaque_auth / AUTH_SYS decode with structs;
# tests/_legacy_codecs.py keeps the per-field codecs they replaced.

U32 = st.integers(min_value=0, max_value=2**32 - 1)
I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
authsys = st.builds(
    AuthSys, stamp=U32, machinename=st.text(max_size=20), uid=U32, gid=U32,
    gids=st.lists(U32, max_size=16),
)
auths = st.one_of(
    st.just(OpaqueAuth()),
    authsys.map(lambda a: a.to_opaque()),
    st.builds(OpaqueAuth, flavor=I32, body=st.binary(max_size=40)),
)
calls = st.builds(
    CallMessage, xid=U32, prog=U32, vers=U32, proc=U32, cred=auths,
    verf=auths, args=st.binary(max_size=40),
)
#: every reply_stat / accept_stat / reject_stat variant
replies = st.one_of(
    st.builds(ReplyMessage, xid=U32, verf=auths, results=st.binary(max_size=40)),
    st.builds(
        ReplyMessage, xid=U32, reply_stat=st.just(MSG_ACCEPTED),
        accept_stat=st.sampled_from(
            [SUCCESS, PROG_UNAVAIL, PROG_MISMATCH, PROC_UNAVAIL, GARBAGE_ARGS,
             SYSTEM_ERR, 99]),
        verf=auths, mismatch_low=U32, mismatch_high=U32,
        results=st.binary(max_size=20),
    ),
    st.builds(
        ReplyMessage, xid=U32, reply_stat=st.just(MSG_DENIED),
        reject_stat=st.sampled_from([RPC_MISMATCH, AUTH_ERROR]),
        auth_stat=I32, mismatch_low=U32, mismatch_high=U32,
    ),
)


def mutations(data):
    """Every truncation, then every byte set to a few telling values
    (0 and 1 for msg_type, 3 for rpcvers, nonzero padding, huge lengths)."""
    for cut in range(len(data)):
        yield data[:cut]
    for pos in range(len(data)):
        for byte in (0x00, 0x01, 0x03, 0x80, 0xFF):
            yield data[:pos] + bytes([byte]) + data[pos + 1:]


@given(calls)
def test_call_encodes_and_decodes_as_before(call):
    data = call.encode()
    assert data == old_call_encode(call)
    assert CallMessage.decode(data) == old_call_decode(data) == call


@given(replies)
def test_reply_encodes_and_decodes_as_before(reply):
    data = reply.encode()
    assert data == old_reply_encode(reply)
    assert ReplyMessage.decode(data) == old_reply_decode(data)


@settings(max_examples=40, deadline=None)
@given(calls)
def test_call_decode_rejects_what_the_old_decoder_rejects(call):
    for bad in mutations(call.encode()):
        assert outcome(CallMessage.decode, bad) == outcome(old_call_decode, bad), bad


@settings(max_examples=40, deadline=None)
@given(replies)
def test_reply_decode_rejects_what_the_old_decoder_rejects(reply):
    for bad in mutations(reply.encode()):
        assert outcome(ReplyMessage.decode, bad) == outcome(old_reply_decode, bad), bad


@pytest.mark.parametrize("record", [
    b"", b"\x00\x00\x00\x01", b"\x00\x00\x00\x01\x00\x00\x00\x01",
    b"\x00\x00\x00\x01\x00\x00\x00\x00",
    b"\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03",
    b"\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00",
    b"\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02" + b"\x00" * 11,
])
def test_short_call_heads_fail_on_the_first_bad_field(record):
    assert outcome(CallMessage.decode, record) == outcome(old_call_decode, record)


@given(authsys)
def test_auth_sys_encodes_and_decodes_as_before(auth):
    opaque = auth.to_opaque()
    assert opaque == old_authsys_to_opaque(auth)
    assert AuthSys.from_opaque(opaque) == old_authsys_from_opaque(opaque) == auth


@settings(max_examples=40, deadline=None)
@given(authsys)
def test_auth_sys_decode_rejects_what_the_old_decoder_rejects(auth):
    body = auth.to_opaque().body
    for bad in mutations(body):
        cred = OpaqueAuth(AUTH_SYS, bad)
        assert outcome(AuthSys.from_opaque, cred) == outcome(old_authsys_from_opaque, cred)


def test_auth_sys_with_more_than_16_gids_encodes_as_before_but_is_rejected():
    auth = AuthSys(uid=1, gid=2, gids=list(range(17)))
    opaque = auth.to_opaque()
    assert opaque == old_authsys_to_opaque(auth)
    with pytest.raises(XdrError):
        AuthSys.from_opaque(opaque)
    with pytest.raises(XdrError):
        old_authsys_from_opaque(opaque)


@pytest.mark.parametrize("message", [
    CallMessage(2**32, 1, 1, 1),
    CallMessage(1, -1, 1, 1),
    CallMessage(1, 1, 1, 1, cred=OpaqueAuth(2**31, b"")),
    ReplyMessage(2**32),
    ReplyMessage(-1, results=b"x"),
    ReplyMessage(1, accept_stat=PROG_MISMATCH, mismatch_low=-1),
])
def test_out_of_range_headers_raise_xdr_error(message):
    with pytest.raises(XdrError):
        message.encode()


@pytest.mark.parametrize("auth", [
    AuthSys(uid=-1), AuthSys(gid=2**32), AuthSys(gids=[2**32]), AuthSys(stamp=-1),
])
def test_out_of_range_auth_sys_raises_xdr_error(auth):
    with pytest.raises(XdrError):
        auth.to_opaque()
