"""Duplicate-request cache: unit behavior and end-to-end exactly-once.

The DRC is the correctness half of retransmission: a client that times
out and re-sends a non-idempotent call (REMOVE, RENAME, MKDIR,
exclusive CREATE) must not have it execute twice.  The unit tests pin
the cache protocol (miss / replay / park / abort-promotion / bounds);
the end-to-end tests force same-xid retransmission by setting the reply
timer *below* the WAN RTT and count actual executions at the kernel
NFS program — for the plain NFS path and for both SGFS proxy hops.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import Testbed, setup_nfs_v3
from repro.core.setups import setup_gfs, setup_sgfs
from repro.nfs.protocol import Proc
from repro.rpc.auth import AUTH_SYS, AuthSys, OpaqueAuth
from repro.rpc.drc import MISS, REPLAY, WAIT, DuplicateRequestCache, drc_key
from repro.rpc.messages import CallMessage
from repro.sim import Simulator
from repro.vfs.fs import Credentials

ROOT = Credentials(0, 0)


# -- unit: the cache protocol -------------------------------------------------


def test_miss_then_complete_then_replay():
    sim = Simulator()
    drc = DuplicateRequestCache(sim)
    state, _ = drc.check("k")
    assert state == MISS
    drc.complete("k", b"the reply")
    state, value = drc.check("k")
    assert state == REPLAY
    assert value == b"the reply"
    assert drc.replays == 1


def test_duplicate_parks_until_original_completes():
    sim = Simulator()
    drc = DuplicateRequestCache(sim)
    assert drc.check("k")[0] == MISS
    got = []

    def duplicate():
        state, ev = drc.check("k")
        assert state == WAIT
        cached = yield ev
        got.append(cached)

    def original():
        yield sim.timeout(1.0)
        drc.complete("k", b"computed once")

    sim.spawn(duplicate())
    sim.spawn(original())
    sim.run()
    assert got == [b"computed once"]
    assert drc.parks == 1


def test_abort_promotes_exactly_one_waiter():
    """If the original executor dies, one parked duplicate takes over
    (wakes with None) and the rest keep waiting for its reply."""
    sim = Simulator()
    drc = DuplicateRequestCache(sim)
    assert drc.check("k")[0] == MISS
    results = []

    def duplicate():
        _state, ev = drc.check("k")
        cached = yield ev
        if cached is None:
            results.append("promoted")
            drc.complete("k", b"recovered")
        else:
            results.append(cached)

    def crasher():
        yield sim.timeout(1.0)
        drc.abort("k")

    sim.spawn(duplicate())
    sim.spawn(duplicate())
    sim.spawn(crasher())
    sim.run()
    assert sorted(map(str, results)) == ["b'recovered'", "promoted"]


def test_lru_bound_and_eviction():
    sim = Simulator()
    drc = DuplicateRequestCache(sim, capacity=4)
    for i in range(10):
        drc.check(i)
        drc.complete(i, b"r%d" % i)
    assert len(drc) <= 4
    assert drc.evictions >= 6
    state, _ = drc.check(0)  # long evicted
    assert state == MISS
    state, value = drc.check(9)  # most recent survives
    assert state == REPLAY and value == b"r9"


def test_entries_age_out_on_virtual_clock():
    sim = Simulator()
    drc = DuplicateRequestCache(sim, max_age=10.0)

    def job():
        drc.check("k")
        drc.complete("k", b"r")
        yield sim.timeout(100.0)
        state, _ = drc.check("k")
        return state

    proc = sim.spawn(job())
    assert sim.run_until_complete(proc) == MISS
    assert drc.expirations >= 1


def test_drc_key_separates_client_identities():
    def call(uid, xid=77, args=b"same"):
        cred = AuthSys(machinename="node1", uid=uid, gid=uid).to_opaque()
        return CallMessage(xid, 100003, 3, int(Proc.REMOVE), cred=cred, args=args)

    assert drc_key(call(1)) == drc_key(call(1))
    assert drc_key(call(1)) != drc_key(call(2))  # other client, same xid
    assert drc_key(call(1)) != drc_key(call(1, xid=78))
    # same xid reused for a different payload (paranoia guard)
    assert drc_key(call(1)) != drc_key(call(1, args=b"different"))


def test_drc_key_malformed_auth_sys_body_maps_to_flavor():
    """A garbage AUTH_SYS body (short, bad UTF-8, trailing bytes) is an
    XdrError, and the call is keyed by flavor alone."""
    bodies = [
        b"",
        b"\x00\x00\x00\x01",
        b"\x00" * 4 + b"\x00\x00\x00\x02\xff\xfe\x00\x00" + b"\x00" * 12,
        b"\x00" * 100,
    ]
    for body in bodies:
        cred = OpaqueAuth(AUTH_SYS, body)
        call = CallMessage(77, 100003, 3, int(Proc.REMOVE), cred=cred, args=b"a")
        assert drc_key(call)[0] == ("-", AUTH_SYS), body


def test_drc_key_propagates_unrelated_errors(monkeypatch):
    def broken(cls, auth):
        raise RuntimeError("not a decode failure")

    monkeypatch.setattr(AuthSys, "from_opaque", classmethod(broken))
    cred = AuthSys(machinename="node1", uid=1, gid=1).to_opaque()
    call = CallMessage(77, 100003, 3, int(Proc.REMOVE), cred=cred, args=b"a")
    with pytest.raises(RuntimeError):
        drc_key(call)


# -- indexed expiry vs. the full-table scan ----------------------------------


class _ScanDRC(DuplicateRequestCache):
    """Reference: expiry as it was, a scan of every entry per check()."""

    def _expire(self):
        self._expiry.clear()  # unused by the scan
        now = self.sim.now
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.reply is not None and now - entry.done_at > self.max_age
        ]
        for key in stale:
            del self._entries[key]
            self.expirations += 1


_drc_keys = st.sampled_from("abcd")
_drc_ops = st.lists(
    st.one_of(
        st.tuples(st.just("check"), _drc_keys),
        st.tuples(st.just("check"), _drc_keys),
        st.tuples(st.just("complete"), _drc_keys),
        st.tuples(st.just("complete"), _drc_keys),
        st.tuples(st.just("abort"), _drc_keys),
        # 10.0 lands exactly on max_age: not yet stale
        st.tuples(st.just("advance"),
                  st.sampled_from([0.5, 3.0, 7.25, 10.0, 10.5, 25.0])),
    ),
    max_size=100,
)


def _drc_state(drc):
    return (
        [(k, e.reply, e.done_at, len(e.waiters)) for k, e in drc._entries.items()],
        (drc.misses, drc.replays, drc.parks, drc.evictions, drc.expirations),
    )


@settings(max_examples=400, deadline=None)
@given(ops=_drc_ops)
def test_drc_expiry_queue_matches_full_scan(ops):
    sim = Simulator()
    drc = DuplicateRequestCache(sim, capacity=3, max_age=10.0)
    ref = _ScanDRC(sim, capacity=3, max_age=10.0)
    for n, op in enumerate(ops):
        if op[0] == "check":
            (state, value), (rstate, rvalue) = drc.check(op[1]), ref.check(op[1])
            assert state == rstate
            if state == REPLAY:
                assert value == rvalue
            # after _expire the queue holds nothing older than max_age
            assert all(sim.now - t <= drc.max_age for t, _k in drc._expiry)
        elif op[0] == "complete":
            # completing a key that is not (or no longer) in progress
            # re-creates or re-stamps it, as a late reply would
            reply = b"r%d" % n
            drc.complete(op[1], reply)
            ref.complete(op[1], reply)
        elif op[0] == "abort":
            drc.abort(op[1])
            ref.abort(op[1])
        else:
            sim.run(until=sim.now + op[1])
        assert _drc_state(drc) == _drc_state(ref)
        assert all(isinstance(k, str) for _t, k in drc._expiry)


# -- end-to-end: retransmitted non-idempotent calls execute once --------------


def _count_executions(program, proc):
    """Wrap ``program.handle`` to count executions of one procedure."""
    counts = []
    orig = program.handle

    def wrapped(p, args, call, ctx):
        if int(p) == int(proc):
            counts.append(p)
        return orig(p, args, call, ctx)

    program.handle = wrapped
    return counts


_OP_PROC = {
    "remove": Proc.REMOVE,
    "rename": Proc.RENAME,
    "mkdir": Proc.MKDIR,
    "create": Proc.CREATE,
}


def _do_op(cl, op):
    if op == "remove":
        yield from cl.unlink("/victim.bin")
    elif op == "rename":
        yield from cl.rename("/old.bin", "/new.bin")
    elif op == "mkdir":
        yield from cl.mkdir("/made")
    elif op == "create":
        yield from cl.create("/excl.bin", exclusive=True)


def _prepare_op(cl, op):
    if op == "remove":
        yield from cl.write_file("/victim.bin", b"to be removed")
    elif op == "rename":
        yield from cl.write_file("/old.bin", b"payload")


def _check_op_effect(tb, op):
    if op == "remove":
        with pytest.raises(Exception):
            tb.fs.resolve("/victim.bin", ROOT)
    elif op == "rename":
        assert bytes(tb.fs.resolve("/new.bin", ROOT).data) == b"payload"
    elif op == "mkdir":
        assert tb.fs.resolve("/made", ROOT) is not None
    elif op == "create":
        assert tb.fs.resolve("/excl.bin", ROOT) is not None


@pytest.mark.parametrize("op", sorted(_OP_PROC))
def test_nfs_retransmitted_call_executes_exactly_once(op):
    """Plain NFS: reply timer below the 80 ms RTT forces same-xid
    retransmissions; the kernel server's DRC absorbs them."""
    tb = Testbed.build(rtt=0.08)
    mount = setup_nfs_v3(tb)
    cl = mount.client

    def job():
        yield from _prepare_op(cl, op)  # prerequisites on a clean timer
        # now every call retransmits at least once before the reply lands
        cl.timeo = 0.02
        cl.timeo_retrans = 6
        counts = _count_executions(tb.nfs_program, _OP_PROC[op])
        yield from _do_op(cl, op)
        cl.timeo = None
        return counts

    counts = tb.run(job())
    assert len(counts) == 1  # executed exactly once despite duplicates
    drc = tb.nfs_rpc_server.drc
    assert drc.replays + drc.parks >= 1
    _check_op_effect(tb, op)


@pytest.mark.parametrize("builder", [setup_gfs, setup_sgfs],
                         ids=["gfs", "sgfs"])
def test_client_proxy_drc_absorbs_client_retransmissions(builder):
    """SGFS/GFS: the kernel client retransmits into the *client* proxy;
    its DRC must dedup before the call is ever forwarded twice."""
    tb = Testbed.build(rtt=0.08)
    mount = builder(tb)
    cl = mount.client

    def job():
        yield from cl.write_file("/victim.bin", b"bye")
        cl.timeo = 0.02  # loopback hop is fast, but the proxy's reply
        cl.timeo_retrans = 6  # waits on the WAN: timer fires first
        counts = _count_executions(tb.nfs_program, Proc.REMOVE)
        yield from cl.unlink("/victim.bin")
        cl.timeo = None
        # let the (blocking) proxy session drain the queued duplicates
        yield tb.sim.timeout(1.0)
        return counts

    counts = tb.run(job())
    assert len(counts) == 1
    drc = mount.client_proxy._drc
    assert drc.replays + drc.parks >= 1


@pytest.mark.parametrize("builder", [setup_gfs, setup_sgfs],
                         ids=["gfs", "sgfs"])
def test_server_proxy_drc_absorbs_proxy_retransmissions(builder):
    """SGFS/GFS: the client proxy's upstream forwarding retransmits over
    the WAN; the *server* proxy's DRC must dedup."""
    tb = Testbed.build(rtt=0.08)
    mount = builder(tb)
    cl = mount.client
    cp = mount.client_proxy

    def job():
        yield from cl.write_file("/victim.bin", b"bye")
        cp.upstream_timeo = 0.03  # below the proxy-to-proxy RTT
        cp.upstream_retrans = 3
        counts = _count_executions(tb.nfs_program, Proc.REMOVE)
        yield from cl.unlink("/victim.bin")
        cp.upstream_timeo = None
        # let the (blocking) proxy session drain the queued duplicates
        yield tb.sim.timeout(1.0)
        return counts

    counts = tb.run(job())
    assert len(counts) == 1
    drc = mount.server_proxy._drc
    assert drc.replays + drc.parks >= 1
