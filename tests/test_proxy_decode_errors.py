"""The proxies' decode handlers fail closed.

Malformed wire input is dropped or rejected exactly as it always was
(each handler catches ``XdrError`` and, where the RPC header is decoded,
``RpcError``), while anything else a decoder raises — a codec bug —
propagates instead of being swallowed.  Before the handlers were typed,
a broken ``AuthSys.from_opaque`` made ``_remap_credentials`` forward the
client's unmapped uid/gid.
"""

import pytest

from repro.core.setups import FILE_ACCOUNT, USER_DN, setup_sgfs
from repro.core.topology import Testbed
from repro.nfs import protocol as pr
from repro.nfs.protocol import FileHandle, NfsStatus, Proc
from repro.proxy.client_proxy import UpstreamSession
from repro.rpc.auth import AUTH_SYS, AuthSys, OpaqueAuth
from repro.rpc.compound import (
    COMPOUND_EXEC,
    COMPOUND_PROGRAM,
    COMPOUND_VERSION,
    MAX_MEMBERS,
    unpack_members,
)
from repro.rpc.messages import CallMessage, ReplyMessage
from repro.xdr import Packer, XdrError

GOOD_CRED = AuthSys(uid=5001, gid=5001, machinename="job").to_opaque()
BAD_CRED = OpaqueAuth(AUTH_SYS, b"\x00\x00\x00\x01")  # truncated AUTH_SYS


def boom(*_args, **_kwargs):
    raise RuntimeError("codec bug")


class Wire:
    """A transport that records what the proxy sends back."""

    def __init__(self):
        self.sent = []

    def send_record(self, record):
        self.sent.append(record)


def nfs_call(proc, args=b"", cred=GOOD_CRED):
    return CallMessage(7, pr.NFS_PROGRAM, pr.NFS_V3, int(proc), cred=cred, args=args)


@pytest.fixture
def mount():
    tb = Testbed.build()
    return setup_sgfs(tb)


def run(mount, gen):
    return mount.tb.run(gen)


# -- server proxy ---------------------------------------------------------------


def test_remap_keeps_a_malformed_credential_and_maps_a_good_one(mount):
    sp = mount.server_proxy
    bad = nfs_call(Proc.GETATTR, cred=BAD_CRED)
    assert sp._remap_credentials(bad, FILE_ACCOUNT) is bad
    good = sp._remap_credentials(nfs_call(Proc.GETATTR), FILE_ACCOUNT)
    assert AuthSys.from_opaque(good.cred).uid == FILE_ACCOUNT.uid


def test_remap_propagates_a_decoder_bug(mount, monkeypatch):
    monkeypatch.setattr(AuthSys, "from_opaque", boom)
    with pytest.raises(RuntimeError):
        mount.server_proxy._remap_credentials(nfs_call(Proc.GETATTR), FILE_ACCOUNT)


def test_acl_name_screen_lets_garbage_through_and_blocks_acl_names(mount):
    sp = mount.server_proxy
    assert sp._screen_acl_names(nfs_call(Proc.LOOKUP, b"\x00\x00")) is None
    assert sp._screen_acl_names(nfs_call(Proc.RENAME, b"\xff" * 8)) is None
    args = pr.pack_lookup_args(FileHandle(1, 1, 1), ".x.acl")
    blocked = sp._screen_acl_names(nfs_call(Proc.LOOKUP, args))
    assert pr.unpack_lookup_res(blocked.results)[0] == NfsStatus.NOENT


def test_acl_name_screen_propagates_a_decoder_bug(mount, monkeypatch):
    sp = mount.server_proxy
    monkeypatch.setattr(pr, "unpack_rename_args", boom)
    with pytest.raises(RuntimeError):
        sp._screen_acl_names(nfs_call(Proc.RENAME, b""))
    monkeypatch.setattr(FileHandle, "unpack", boom)
    with pytest.raises(RuntimeError):
        sp._screen_acl_names(nfs_call(Proc.LOOKUP, b""))


def test_access_answer_falls_back_on_garbage_or_a_stale_handle(mount):
    sp = mount.server_proxy
    assert sp._answer_access(nfs_call(Proc.ACCESS, b"\x00"), USER_DN) is None
    stale = pr.pack_access_args(FileHandle(1, 10**9, 1), pr.ACCESS_READ)
    assert sp._answer_access(nfs_call(Proc.ACCESS, stale), USER_DN) is None


def test_access_answer_propagates_a_decoder_bug(mount, monkeypatch):
    monkeypatch.setattr(pr, "unpack_access_args", boom)
    with pytest.raises(RuntimeError):
        mount.server_proxy._answer_access(nfs_call(Proc.ACCESS, b""), USER_DN)


def test_readdir_filter_passes_garbage_through(mount, monkeypatch):
    sp = mount.server_proxy
    reply = ReplyMessage(7, results=b"\x00\x00\x00\x00\x00\x00\x00\x02")
    assert sp._filter_readdir(reply, plus=False) is reply
    assert reply.results == b"\x00\x00\x00\x00\x00\x00\x00\x02"
    monkeypatch.setattr(pr, "unpack_readdir_res", boom)
    with pytest.raises(RuntimeError):
        sp._filter_readdir(reply, plus=False)


def test_serve_drops_garbage_records(mount):
    sp, wire = mount.server_proxy, Wire()
    for record in (b"", b"\x00\x00\x00\x01\x00\x00\x00\x01",  # a REPLY
                   CallMessage(1, 1, 1, 1).encode()[:20]):
        run(mount, sp._serve(wire, None, record, USER_DN, FILE_ACCOUNT))
    assert wire.sent == []


def test_serve_propagates_a_decoder_bug(mount, monkeypatch):
    monkeypatch.setattr(CallMessage, "decode", boom)
    with pytest.raises(RuntimeError):
        run(mount, mount.server_proxy._serve(
            Wire(), None, b"\x00" * 40, USER_DN, FILE_ACCOUNT))


def envelope(args):
    return CallMessage(9, COMPOUND_PROGRAM, COMPOUND_VERSION, COMPOUND_EXEC, args=args)


def test_compound_drops_garbage_envelopes_and_blanks_garbage_members(mount):
    sp, wire = mount.server_proxy, Wire()
    over_cap = Packer()
    over_cap.pack_uint(MAX_MEMBERS + 1)
    for args in (b"\x00\x00\x00\x02\x00", over_cap.get_bytes()):
        run(mount, sp._serve_compound(wire, None, envelope(args), USER_DN, FILE_ACCOUNT))
    assert wire.sent == []
    members = Packer()
    members.pack_uint(2)
    members.pack_opaque(b"\x00\x00\x00\x01")  # truncated CALL
    members.pack_opaque(b"\x00\x00\x00\x01\x00\x00\x00\x01")  # a REPLY
    run(mount, sp._serve_compound(
        wire, None, envelope(members.get_bytes()), USER_DN, FILE_ACCOUNT))
    (sent,) = wire.sent
    assert unpack_members(ReplyMessage.decode(sent).results) == [b"", b""]


def test_compound_propagates_a_decoder_bug(mount, monkeypatch):
    members = Packer()
    members.pack_uint(1)
    members.pack_opaque(b"\x00" * 40)
    monkeypatch.setattr(CallMessage, "decode", boom)
    with pytest.raises(RuntimeError):
        run(mount, mount.server_proxy._serve_compound(
            Wire(), None, envelope(members.get_bytes()), USER_DN, FILE_ACCOUNT))


# -- client proxy ---------------------------------------------------------------


def cached_mount(streams=1):
    tb = Testbed.build(rtt=0.040)
    return setup_sgfs(tb, disk_cache=True, streams=streams)


def write_then(mount, patch, nbytes=65536):
    """Write a file through the caching proxy, apply ``patch``, then
    tear the session down (write-back); returns the proxy's stats."""

    def job():
        yield from mount.client.write_file("/w.bin", b"w" * nbytes)

    mount.tb.run(job())
    patch()
    mount.tb.run(mount.finish())
    return mount.client_proxy.stats


def test_client_serve_drops_garbage_records(mount):
    cp, wire = mount.client_proxy, Wire()
    run(mount, cp._serve(wire, b"\x00\x00\x00\x01\x00\x00\x00\x01"))
    assert wire.sent == []


def test_client_serve_propagates_a_decoder_bug(mount, monkeypatch):
    monkeypatch.setattr(CallMessage, "decode", boom)
    with pytest.raises(RuntimeError):
        run(mount, mount.client_proxy._serve(Wire(), b"\x00" * 40))


def xdr_garbage(*_args, **_kwargs):
    raise XdrError("garbage on the wire")


@pytest.mark.parametrize("streams", [1, 4])
def test_undecodable_writeback_replies_count_as_errors(streams, monkeypatch):
    mount = cached_mount(streams)
    stats = write_then(
        mount, lambda: monkeypatch.setattr(pr, "unpack_write_res", xdr_garbage))
    assert stats["writeback_errors"] == 2
    assert stats["writeback_blocks"] == 0


@pytest.mark.parametrize("streams", [1, 4])
def test_writeback_propagates_a_decoder_bug(streams, monkeypatch):
    mount = cached_mount(streams)
    with pytest.raises(RuntimeError):
        write_then(mount, lambda: monkeypatch.setattr(pr, "unpack_write_res", boom))


def test_unanswered_batch_members_count_as_writeback_errors(monkeypatch):
    mount = cached_mount(streams=4)

    def no_replies(self, calls, channel=0):
        return [None] * len(calls)
        yield  # pragma: no cover

    stats = write_then(
        mount, lambda: monkeypatch.setattr(UpstreamSession, "forward_batch", no_replies),
        nbytes=64 * 32768)
    # bursts that ride one envelope get no replies; single calls do
    assert stats["writeback_errors"] > 0
    assert stats["writeback_errors"] + stats["writeback_blocks"] == 64
