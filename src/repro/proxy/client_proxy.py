"""Client-side SGFS proxy (paper Figure 1 left, §6 "sgfs" setups).

Accepts the unmodified kernel NFS client's connections on localhost and
forwards each RPC to the server-side proxy over a pluggable transport
(plain TCP for *gfs*, the SSL-like channel for *sgfs*, an SSH tunnel for
*gfs-ssh*).  Optionally interposes a **disk cache**:

- attributes, lookups and access results are cached aggressively for
  the lifetime of the session (sessions are per-user/application, so
  the sharing hazards of a shared cache do not apply — §6.1),
- file data is cached in 32 KB blocks on the proxy's disk; hits pay the
  local disk instead of the WAN round trip,
- writes are absorbed **write-back**: the proxy answers WRITE locally,
  keeps the dirty blocks, and writes back on COMMIT, on eviction, and
  at session teardown (:meth:`SgfsClientProxy.writeback`) — which is
  how Seismic's temporary files never cross the WAN (§6.3.2) and why
  the paper reports the end-of-run write-back time separately.

This write-back relaxation is safe precisely because an SGFS session is
dedicated to a single user/job; multi-writer sharing uses the overlay
consistency protocols of [46] (out of scope, see DESIGN.md).
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.nfs import protocol as pr
from repro.obs import NULL_SPAN
from repro.nfs.protocol import Fattr3, FileHandle, NfsStatus, Proc
from repro.rpc.auth import NULL_AUTH
from repro.rpc.compound import (
    COMPOUND_EXEC,
    COMPOUND_PROGRAM,
    COMPOUND_VERSION,
    pack_members,
    unpack_members,
)
from repro.rpc.costs import CostProfile, FREE_PROFILE, charge_profile
from repro.rpc.drc import DuplicateRequestCache, REPLAY, WAIT, drc_key
from repro.rpc.errors import RpcError, RpcTimeout, RpcTransportError
from repro.rpc.messages import CallMessage, ReplyMessage
from repro.rpc.transport import StreamTransport, Transport
from repro.sim.core import Event, Simulator
from repro.sim.process import all_of, any_of
from repro.sim.sync import Gate
from repro.vfs.disk import DiskModel
from repro.xdr import XdrError

#: NFS procedures that must not re-execute on a duplicate request.
_NFS_NON_IDEMPOTENT = frozenset(int(p) for p in pr.NON_IDEMPOTENT_PROCS)

#: bulk data procedures — the traffic round-robined across sub-channels
_BULK_PROCS = frozenset((int(pr.Proc.READ), int(pr.Proc.WRITE)))

#: EWMA gain for the per-session RTT estimators (RFC 6298's 1/8)
_RTT_ALPHA = 0.125
#: floor on the bulk-minus-small service-time estimate (virtual seconds)
#: so a leg whose bulk calls are barely slower than its control calls
#: cannot demand an unbounded window
_RTT_FLOOR = 1e-4
#: pipeline-window cap when --pipeline-depth is not given
DEFAULT_PIPELINE_DEPTH = 64


@dataclass
class ProxyCacheConfig:
    """The cache section of a proxy configuration file (§4.2)."""

    enabled: bool = False
    cache_data: bool = True
    cache_attrs: bool = True
    cache_access: bool = True
    write_back: bool = True
    block_size: int = 32768
    capacity_bytes: int = 4 << 30
    #: background flush of dirty blocks older than this (None = only on
    #: COMMIT/eviction/teardown)
    flush_age: Optional[float] = None
    #: cache-consistency protocol overlaying NFS's (the paper defers
    #: multi-user sharing to the authors' application-tailored
    #: consistency work [46]):
    #:   "session" — aggressive: entries valid for the session lifetime
    #:               (the paper's single-user/job assumption, default),
    #:   "poll"    — entries older than ``consistency_ttl`` revalidate
    #:               against the server (GETATTR; mtime change drops
    #:               cached data) — bounded staleness for shared data.
    consistency: str = "session"
    consistency_ttl: float = 5.0

    def __post_init__(self) -> None:
        if self.consistency not in ("session", "poll"):
            raise ValueError(f"unknown consistency mode {self.consistency!r}")


@dataclass
class _Block:
    data: bytes
    dirty: bool = False
    dirtied_at: float = 0.0


class _CallRouter:
    """Matches forwarded calls to upstream replies by our own xids.

    The xid source is external (shared by the proxy across router
    generations) so a call retried on a replacement router keeps its
    original rewritten xid — which is what lets the server-side proxy's
    duplicate-request cache recognize the retry.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        xid_source: Optional[Callable[[], int]] = None,
    ):
        self.sim = sim
        self.transport = transport
        self._pending: Dict[int, Event] = {}
        if xid_source is None:
            xid_source = itertools.count(0x7000_0001).__next__
        self.allocate_xid = xid_source
        self.retransmissions = 0
        #: set when the pump dies; new forwards fail fast so the
        #: recovery loop replaces the router instead of sending into a
        #: connection nobody reads from anymore
        self._dead: Optional[RpcError] = None
        #: armed by quiesce(): fires when the pending table empties
        self._drain_ev: Optional[Event] = None
        sim.spawn(self._pump(), name="cproxy-pump")

    def forward(self, call: CallMessage, timeout: Optional[float] = None,
                retrans: int = 0):
        """Process generator: send a call upstream, return ReplyMessage."""
        xid = self.allocate_xid()
        rewritten = CallMessage(
            xid, call.prog, call.vers, call.proc, call.cred, call.verf, call.args
        )
        reply = yield from self.forward_record(
            xid, rewritten.encode(), timeout=timeout, retrans=retrans
        )
        return reply

    def forward_record(self, xid: int, record: bytes,
                       timeout: Optional[float] = None, retrans: int = 0):
        """Send an already-encoded call and await the matching reply.

        With ``timeout`` set, the identical record is retransmitted up
        to ``retrans`` times on a doubling timer before
        :class:`RpcTimeout` is raised."""
        if self._dead is not None:
            raise RpcTransportError(f"upstream is dead: {self._dead}")
        ev = self.sim.event(name=f"fw:{xid}")
        self._pending[xid] = ev
        t = timeout
        sent = 0
        while True:
            try:
                if hasattr(self.transport, "charge"):
                    yield from self.transport.charge(len(record))
                self.transport.send_record(record)
            except RpcError:
                self._pending.pop(xid, None)
                raise
            except Exception as exc:
                self._pending.pop(xid, None)
                raise RpcTransportError(f"upstream send failed: {exc}") from exc
            if t is None:
                reply: ReplyMessage = yield ev
                return reply
            idx, value = yield any_of(self.sim, [ev, self.sim.timeout(t)])
            if idx == 0:
                return value
            if sent >= retrans:
                self._pending.pop(xid, None)
                raise RpcTimeout(
                    f"no upstream reply for xid={xid:#x} "
                    f"after {sent + 1} transmissions"
                )
            sent += 1
            self.retransmissions += 1
            t *= 2.0

    def _pump(self):
        try:
            while True:
                record = yield from self.transport.recv_record()
                if record is None:
                    break
                try:
                    reply = ReplyMessage.decode(record)
                except RpcError:
                    continue
                ev = self._pending.pop(reply.xid, None)
                if ev is not None:
                    ev.succeed(reply)
                if not self._pending and self._drain_ev is not None:
                    self._drain_ev.succeed(None)
        except Exception as exc:
            self._fail_all(RpcError(f"upstream transport failed: {exc}"))
            return
        self._fail_all(RpcError("upstream closed"))

    def _fail_all(self, err: RpcError) -> None:
        self._dead = err
        pending, self._pending = self._pending, {}
        for ev in pending.values():
            ev.fail(err)
        if self._drain_ev is not None:
            self._drain_ev.succeed(None)
            self._drain_ev = None

    def quiesce(self, timeout: float):
        """Process generator: wait for in-flight calls to finish (bounded).

        Used by graceful session replacement: the retiring connection
        stays open until its outstanding replies arrive, so cycling a
        healthy session does not turn live calls into retry storms."""
        if not self._pending:
            return
        self._drain_ev = self.sim.event(name="rt-drain")
        yield any_of(self.sim, [self._drain_ev, self.sim.timeout(timeout)])
        self._drain_ev = None


class _SubChannel:
    """One extra WAN sub-channel of an :class:`UpstreamSession`.

    Channel 0 lives in the session's historical ``transport``/``router``
    fields; channels 1..N-1 each hold their own transport + router pair
    (sharing the session's rewritten-xid stream) and their own reconnect
    gate, so a dead sub-channel fails over independently."""

    __slots__ = ("transport", "router", "reconnecting")

    def __init__(self) -> None:
        self.transport: Optional[Transport] = None
        self.router: Optional[_CallRouter] = None
        self.reconnecting: Optional[Event] = None


class UpstreamSession:
    """One recoverable proxy-to-server leg: transport + router + retry.

    Extracted from :class:`SgfsClientProxy` so the striped data plane
    (:mod:`repro.grid`) can hold one leg per backend server while the
    single-server proxy keeps exactly one.  The leg owns the rewritten
    xid stream (shared across router generations so the upstream DRC
    recognizes retries), the reconnect gate, and the backoff budget.

    With ``streams > 1`` the leg becomes a DotDFS-style parallel
    transfer pipe: N concurrent sub-channels (each its own TCP socket +
    TLS record stream, dialed sequentially so ticket resumption chains
    the session keys), with bulk READ/WRITE traffic round-robined
    across channels and everything else pinned to channel 0.  All
    channels draw xids from the one shared stream, so the server-side
    DRC recognizes a retry no matter which channel carries it.
    """

    def __init__(
        self,
        sim: Simulator,
        upstream_factory: Callable[[], "object"],
        stats: Optional[dict] = None,
        timeo: Optional[float] = None,
        retrans: int = 2,
        retry_max: int = 5,
        retry_base: float = 0.5,
        retry_backoff: float = 2.0,
        retry_cap: float = 10.0,
        streams: int = 1,
        name: str = "up",
    ):
        self.sim = sim
        self.upstream_factory = upstream_factory
        #: counter sink — the owning proxy shares its stats dict so
        #: ``upstream_retries`` lands in the proxy.client collector
        self.stats = stats if stats is not None else {}
        #: reply timeout / same-record retransmission budget per attempt
        #: (None = wait forever, the historical mode)
        self.timeo = timeo
        self.retrans = retrans
        #: reconnect-and-retry budget when the leg fails
        self.retry_max = retry_max
        self.retry_base = retry_base
        self.retry_backoff = retry_backoff
        self.retry_cap = retry_cap
        self.transport: Optional[Transport] = None
        self.router: Optional[_CallRouter] = None
        #: rewritten-xid source, shared across router generations so a
        #: retried call keeps its xid (the upstream DRC keys on it)
        self._fwd_xids = itertools.count(0x7000_0001)
        #: in-progress upstream reconnect (Event), if any
        self._reconnecting: Optional[Event] = None
        #: parallel sub-channel count; channels 1..N-1 live in _subs
        self.streams = max(1, int(streams))
        self.name = name
        self._subs: List[_SubChannel] = [
            _SubChannel() for _ in range(self.streams - 1)
        ]
        #: round-robin cursor for bulk READ/WRITE traffic
        self._rr_bulk = 0
        #: smoothed RTT estimators (virtual seconds, deterministic):
        #: small control RPCs approximate the raw round trip, bulk block
        #: RPCs add the per-block service time — their gap sizes the
        #: pipeline window (see :meth:`window`)
        self.srtt_small: Optional[float] = None
        self.srtt_bulk: Optional[float] = None

    def connect(self):
        """Process generator: establish the transport(s), start the pumps.

        Extra sub-channels dial strictly one after another: each
        handshake deposits a fresh session ticket in the client's
        single-slot store, so channel k+1 resumes the keys channel k
        negotiated and the dial order — hence the whole run — stays
        deterministic."""
        self.transport = yield from self.upstream_factory()
        self.router = _CallRouter(
            self.sim, self.transport, xid_source=self._fwd_xids.__next__
        )
        for sub in self._subs:
            sub.transport = yield from self.upstream_factory()
            sub.router = _CallRouter(
                self.sim, sub.transport, xid_source=self._fwd_xids.__next__
            )
        return self

    def close(self) -> None:
        for transport in [self.transport] + [s.transport for s in self._subs]:
            if transport is not None:
                try:
                    transport.close()
                except Exception:
                    pass

    def _router_for(self, channel: int) -> Optional[_CallRouter]:
        return self.router if channel == 0 else self._subs[channel - 1].router

    def _pick_channel(self, call: CallMessage) -> int:
        """Deterministic channel selection: bulk READ/WRITE round-robins
        across the sub-channels in issue order; everything else (the
        metadata stream, whose ordering matters) stays on channel 0."""
        if self.streams == 1:
            return 0
        if call.prog == pr.NFS_PROGRAM and call.proc in _BULK_PROCS:
            channel = self._rr_bulk % self.streams
            self._rr_bulk += 1
            return channel
        return 0

    def _observe_rtt(self, bulk: bool, sample: float) -> None:
        if bulk:
            prev = self.srtt_bulk
            self.srtt_bulk = (
                sample if prev is None else prev + _RTT_ALPHA * (sample - prev)
            )
        else:
            prev = self.srtt_small
            self.srtt_small = (
                sample if prev is None else prev + _RTT_ALPHA * (sample - prev)
            )

    def window(self, cap: int) -> int:
        """RTT-sized pipeline depth for this leg: how many bulk blocks
        should be in flight to hide one round trip (GridFTP-style
        pipelining, window = RTT / per-block service time).

        Both estimators are virtual-time EWMAs fed by the leg's own
        forwarded calls, so the same seed always sizes the same windows;
        until both have a sample the window is one block — the
        historical stop-and-wait behavior."""
        if self.srtt_small is None or self.srtt_bulk is None:
            return 1
        service = max(self.srtt_bulk - self.srtt_small, _RTT_FLOOR)
        return max(1, min(cap, math.ceil(self.srtt_small / service)))

    def _note_stream(self, channel: int, nbytes: int) -> None:
        calls_key = f"stream_calls{{leg={self.name},ch={channel}}}"
        bytes_key = f"stream_bytes{{leg={self.name},ch={channel}}}"
        self.stats[calls_key] = self.stats.get(calls_key, 0) + 1
        self.stats[bytes_key] = self.stats.get(bytes_key, 0) + nbytes

    def forward(self, call: CallMessage, channel: Optional[int] = None):
        """Forward upstream, surviving timeouts and transport death.

        The rewritten xid and encoded record are fixed once, so every
        retransmission — including those sent over a *replacement*
        connection after the server-side proxy restarts — is the same
        request to the upstream DRC, which replays rather than
        re-executes non-idempotent procedures.  ``channel`` pins the
        call to a specific sub-channel; by default bulk traffic
        round-robins and control traffic rides channel 0."""
        assert self.router is not None
        if channel is None:
            channel = self._pick_channel(call)
        xid = self.router.allocate_xid()
        rewritten = CallMessage(
            xid, call.prog, call.vers, call.proc, call.cred, call.verf, call.args
        )
        record = rewritten.encode()
        bulk = call.prog == pr.NFS_PROGRAM and call.proc in _BULK_PROCS
        started = self.sim.now
        failures = 0
        while True:
            router = self._router_for(channel)
            try:
                reply = yield from router.forward_record(
                    xid,
                    record,
                    timeout=self.timeo,
                    retrans=self.retrans,
                )
                self._observe_rtt(bulk, self.sim.now - started)
                if self.streams > 1:
                    self._note_stream(channel, len(record))
                return reply
            except RpcError:
                failures += 1
                if failures > self.retry_max:
                    raise
                self.stats["upstream_retries"] = (
                    self.stats.get("upstream_retries", 0) + 1
                )
                yield self.sim.timeout(
                    min(
                        self.retry_cap,
                        self.retry_base
                        * self.retry_backoff ** (failures - 1),
                    )
                )
                yield from self._ensure_channel(channel, router)

    def forward_batch(self, calls: List[CallMessage], channel: int = 0):
        """Process generator: many calls, one compound round trip.

        Member xids are allocated and the member records encoded exactly
        once, *before* the envelope first goes out: a retransmitted
        envelope replays byte-identical members, so the server-side DRC
        recognizes every member of every retransmission.  Returns one
        ``Optional[ReplyMessage]`` per member, in call order (``None``
        when the server could not decode or answer that member)."""
        assert self.router is not None
        if not calls:
            return []
        members = []
        for call in calls:
            xid = self.router.allocate_xid()
            members.append(
                CallMessage(
                    xid, call.prog, call.vers, call.proc,
                    call.cred, call.verf, call.args,
                ).encode()
            )
        env_xid = self.router.allocate_xid()
        envelope = CallMessage(
            env_xid, COMPOUND_PROGRAM, COMPOUND_VERSION, COMPOUND_EXEC,
            args=pack_members(members),
        ).encode()
        failures = 0
        while True:
            router = self._router_for(channel)
            try:
                reply = yield from router.forward_record(
                    env_xid, envelope,
                    timeout=self.timeo, retrans=self.retrans,
                )
                break
            except RpcError:
                failures += 1
                if failures > self.retry_max:
                    raise
                self.stats["upstream_retries"] = (
                    self.stats.get("upstream_retries", 0) + 1
                )
                yield self.sim.timeout(
                    min(
                        self.retry_cap,
                        self.retry_base
                        * self.retry_backoff ** (failures - 1),
                    )
                )
                yield from self._ensure_channel(channel, router)
        if self.streams > 1:
            self._note_stream(channel, len(envelope))
        self.stats["compound_envelopes"] = (
            self.stats.get("compound_envelopes", 0) + 1
        )
        self.stats["compound_members"] = (
            self.stats.get("compound_members", 0) + len(calls)
        )
        reply.raise_for_status()
        out: List[Optional[ReplyMessage]] = []
        for record in unpack_members(reply.results):
            if not record:
                out.append(None)
                continue
            try:
                out.append(ReplyMessage.decode(record))
            except RpcError:
                out.append(None)
        return out

    def _ensure_channel(self, channel: int, failed_router: _CallRouter):
        """Process generator: replace a dead sub-channel connection —
        channel 0 through the historical :meth:`ensure` gate, extra
        channels through their own per-channel gates."""
        if channel == 0:
            yield from self.ensure(failed_router)
            return
        sub = self._subs[channel - 1]
        if sub.router is not failed_router:
            return  # another caller already replaced it
        if sub.reconnecting is not None:
            yield sub.reconnecting
            return
        gate = sub.reconnecting = self.sim.event(
            name=f"cproxy-reconnect-ch{channel}"
        )
        try:
            try:
                upstream = yield from self.upstream_factory()
            except Exception:
                return  # server proxy still down; caller backs off
            old = sub.transport
            sub.transport = upstream
            sub.router = _CallRouter(
                self.sim, upstream, xid_source=self._fwd_xids.__next__
            )
            if old is not None:
                try:
                    old.close()
                except Exception:
                    pass
        finally:
            sub.reconnecting = None
            gate.succeed(None)

    def ensure(self, failed_router: _CallRouter):
        """Replace a dead upstream connection, at most one attempt at a
        time across all concurrent callers.

        A failed attempt returns (the caller's backoff loop retries
        within its own budget) rather than looping here, so total
        patience is governed by ``retry_max``."""
        if self.router is not failed_router:
            return  # another caller already replaced it
        if self._reconnecting is not None:
            yield self._reconnecting
            return
        gate = self._reconnecting = self.sim.event(name="cproxy-reconnect")
        try:
            try:
                upstream = yield from self.upstream_factory()
            except Exception:
                return  # server proxy still down; caller backs off
            old = self.transport
            self.transport = upstream
            self.router = _CallRouter(
                self.sim, upstream, xid_source=self._fwd_xids.__next__
            )
            if old is not None:
                try:
                    old.close()
                except Exception:
                    pass
        finally:
            self._reconnecting = None
            gate.succeed(None)

    def cycle(self):
        """Process generator: proactively tear down and re-establish the
        upstream session (operator-driven reconnects: proxy restarts,
        credential rollover, periodic session refresh).

        The new connection handshakes *before* the old one closes, so
        in-flight calls either complete on the old transport or fail
        over through their normal retry path.  With session tickets
        enabled the replacement handshake resumes abbreviated."""
        if self._reconnecting is not None:
            yield self._reconnecting
            return
        gate = self._reconnecting = self.sim.event(name="cproxy-cycle")
        try:
            try:
                upstream = yield from self.upstream_factory()
            except Exception:
                return  # server proxy down; keep the session we have
            old, self.transport = self.transport, upstream
            old_router, self.router = self.router, _CallRouter(
                self.sim, upstream, xid_source=self._fwd_xids.__next__
            )
            if old_router is not None:
                # New calls already go to the replacement session; let
                # in-flight replies land on the old one before closing.
                yield from old_router.quiesce(timeout=1.0)
            if old is not None:
                try:
                    old.close()
                except Exception:
                    pass
            if old_router is not None:
                # A locally-closed socket never wakes its own reader, so
                # the old pump can't fail leftovers itself: anything
                # still unanswered fails over to the new session now.
                old_router._fail_all(RpcError("upstream session cycled"))
            # Extra sub-channels cycle the same way, strictly in channel
            # order (sequential dials keep ticket chaining deterministic).
            for sub in self._subs:
                try:
                    upstream = yield from self.upstream_factory()
                except Exception:
                    continue  # keep this sub-channel's current session
                old, sub.transport = sub.transport, upstream
                old_router, sub.router = sub.router, _CallRouter(
                    self.sim, upstream, xid_source=self._fwd_xids.__next__
                )
                if old_router is not None:
                    yield from old_router.quiesce(timeout=1.0)
                if old is not None:
                    try:
                        old.close()
                    except Exception:
                        pass
                if old_router is not None:
                    old_router._fail_all(RpcError("upstream session cycled"))
        finally:
            self._reconnecting = None
            gate.succeed(None)


class SgfsClientProxy:
    """The client-side proxy process."""

    def __init__(
        self,
        sim: Simulator,
        host,
        listen_port: int,
        upstream_factory: Optional[Callable[[], "object"]] = None,
        cost: CostProfile = FREE_PROFILE,
        account: str = "proxy",
        cache: Optional[ProxyCacheConfig] = None,
        disk: Optional[DiskModel] = None,
        blocking: bool = True,
        cryptor=None,
        upstream_timeo: Optional[float] = None,
        upstream_retrans: int = 2,
        upstream_retry_max: int = 5,
        upstream_retry_base: float = 0.5,
        upstream_retry_backoff: float = 2.0,
        upstream_retry_cap: float = 10.0,
        streams: int = 1,
        pipeline_depth: Optional[int] = None,
        grid=None,
    ):
        """``upstream_factory()`` is a process generator returning a
        connected Transport to the server-side proxy (this is where the
        gfs / sgfs / gfs-ssh variants differ).

        ``cryptor`` (a :class:`repro.proxy.cryptofs.BlockCryptor`)
        enables at-rest protection: every block is sealed before it
        leaves the session and verified+opened when fetched back, so the
        file server only ever stores ciphertext (§7 future work).
        Requires ``cache.enabled`` with ``write_back`` — the block cache
        is what aligns all data movement to sealable units.

        ``grid`` (a :class:`repro.grid.GridRouter`) replaces the single
        upstream leg with a striped multi-backend data plane: the router
        owns one :class:`UpstreamSession` per backend server and fans
        block I/O out according to the metadata service's layout.  The
        proxy's ``_upstream``/``upstream_timeo`` views then refer to the
        home (namespace) leg."""
        self.sim = sim
        self.host = host
        self.listen_port = listen_port
        self.upstream_factory = upstream_factory
        self.cost = cost
        self.account = account
        self.cache = cache or ProxyCacheConfig()
        self.disk = disk
        self.blocking = blocking
        self.cryptor = cryptor
        if cryptor is not None and not (
            (cache or ProxyCacheConfig()).enabled
            and (cache or ProxyCacheConfig()).write_back
        ):
            raise ValueError(
                "at-rest protection requires the disk cache with write-back"
            )
        self.grid = grid
        self.streams = max(1, int(streams))
        self.pipeline_depth = pipeline_depth
        #: the WAN transfer engine — windowed read-ahead/write-behind,
        #: compound envelopes, parallel sub-channels.  Strictly opt-in:
        #: at the defaults (streams=1, no pipeline depth) every code
        #: path below is byte-identical to the historical proxy.
        self._engine = self.streams > 1 or pipeline_depth is not None
        #: blocks currently being fetched by a read window, so a second
        #: reader coalesces onto the in-flight fetch instead of
        #: duplicating it (keyed (fileid, block))
        self._inflight_reads: Dict[Tuple[int, int], Event] = {}
        if grid is not None:
            #: home (namespace) leg: leg 0 of the grid router
            self._leg = grid.legs[0]
        else:
            self._leg = UpstreamSession(
                sim, upstream_factory,
                timeo=upstream_timeo, retrans=upstream_retrans,
                retry_max=upstream_retry_max, retry_base=upstream_retry_base,
                retry_backoff=upstream_retry_backoff,
                retry_cap=upstream_retry_cap,
                streams=self.streams,
            )
        self._listener = None
        #: duplicate-request cache for the kernel client's leg: the
        #: proxy rewrites xids upstream, so each serving hop needs its
        #: own DRC for exactly-once semantics of non-idempotent calls
        self._drc = DuplicateRequestCache(sim, name=f"cproxy:{listen_port}")
        #: closed while a configuration reload is being applied (§4.2);
        #: in-flight calls finish, new ones wait at the gate.
        self._serving = Gate(sim, open=True, name="cproxy-serving")

        # --- session-lifetime caches -------------------------------------
        self._attrs: Dict[int, Fattr3] = {}
        #: when each attr entry was last validated against the server
        self._attr_time: Dict[int, float] = {}
        self._handles: Dict[int, FileHandle] = {}
        self._lookups: Dict[Tuple[int, str], Tuple[FileHandle, int]] = {}
        self._access: Dict[Tuple[int, int], int] = {}
        self._blocks: "OrderedDict[Tuple[int, int], _Block]" = OrderedDict()
        self._cache_bytes = 0
        self._dirty: Dict[int, set] = {}  # fileid -> set of dirty block idx
        #: the session's AUTH_SYS credential, captured from client calls
        #: and reused for write-back WRITEs the proxy originates itself
        self._session_cred = None

        # --- statistics ----------------------------------------------------
        self.obs = sim.obs
        self.tracer = sim.tracer
        if self.obs.enabled:
            # the stats dict stays the source of truth; the registry
            # polls it at snapshot time (pull collector, zero hot-path cost)
            self.obs.add_collector("proxy.client", lambda: dict(self.stats))
        self.stats = {
            "local_replies": 0,
            "forwarded": 0,
            "data_hits": 0,
            "data_misses": 0,
            "attr_hits": 0,
            "writes_absorbed": 0,
            "writeback_blocks": 0,
            "writeback_bytes": 0,
            "writeback_errors": 0,
            "blocks_sealed": 0,
            "blocks_opened": 0,
            "revalidations": 0,
            "revalidation_drops": 0,
        }
        for leg in self._all_legs():
            leg.stats = self.stats

    # -- upstream leg views --------------------------------------------------
    # The recovery machinery lives in UpstreamSession; these properties
    # keep the proxy's historical surface (tests and the fault harness
    # read _upstream / set upstream_timeo directly).

    def _all_legs(self):
        return self.grid.legs if self.grid is not None else [self._leg]

    @property
    def _upstream(self) -> Optional[Transport]:
        return self._leg.transport

    @property
    def _router(self) -> Optional[_CallRouter]:
        return self._leg.router

    @property
    def upstream_timeo(self) -> Optional[float]:
        return self._leg.timeo

    @upstream_timeo.setter
    def upstream_timeo(self, value: Optional[float]) -> None:
        for leg in self._all_legs():
            leg.timeo = value

    @property
    def upstream_retrans(self) -> int:
        return self._leg.retrans

    @upstream_retrans.setter
    def upstream_retrans(self, value: int) -> None:
        for leg in self._all_legs():
            leg.retrans = value

    @property
    def upstream_retry_max(self) -> int:
        return self._leg.retry_max

    @upstream_retry_max.setter
    def upstream_retry_max(self, value: int) -> None:
        for leg in self._all_legs():
            leg.retry_max = value

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Process generator: connect upstream, then start accepting."""
        if self.grid is not None:
            yield from self.grid.connect()
        else:
            yield from self._leg.connect()
        self._listener = self.host.listen(self.listen_port)
        self.sim.spawn(self._accept_loop(), name=f"sgfs-cproxy:{self.listen_port}")
        if self.cache.enabled and self.cache.flush_age is not None:
            self.sim.spawn(self._age_flusher(), name="cproxy-flush")
        return self

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _accept_loop(self):
        while self._listener is not None and not self._listener.closed:
            try:
                sock = yield self._listener.accept()
            except Exception:
                return
            self.sim.spawn(self._connection(sock), name="cproxy-conn")

    def _connection(self, sock):
        transport = StreamTransport(sock)
        while True:
            try:
                record = yield from transport.recv_record()
            except Exception:
                return
            if record is None:
                return
            if self.blocking:
                yield from self._serve(transport, record)
            else:
                self.sim.spawn(self._serve(transport, record), name="cproxy-call")

    # -- disk cache timing -----------------------------------------------------

    def _disk_read(self, nbytes: int):
        if self.disk is not None:
            yield from self.disk.read(nbytes, cached=False)
        return
        yield  # pragma: no cover

    def _disk_write(self, nbytes: int):
        if self.disk is not None:
            yield from self.disk.write(nbytes, sync=False)
        return
        yield  # pragma: no cover

    # -- cache bookkeeping --------------------------------------------------------

    def _remember_attr(self, fh: Optional[FileHandle], attr: Optional[Fattr3]) -> None:
        if attr is None or not self.cache.cache_attrs:
            return
        if self._dirty.get(attr.fileid):
            # The file has unflushed local writes: the server's view of
            # size/mtime is stale by design.  Keep the shadow values.
            old = self._attrs.get(attr.fileid)
            if old is not None:
                attr = Fattr3(
                    ftype=attr.ftype, mode=attr.mode, nlink=attr.nlink,
                    uid=attr.uid, gid=attr.gid,
                    size=max(old.size, attr.size),
                    used=max(old.used, attr.used),
                    fsid=attr.fsid, fileid=attr.fileid,
                    atime=attr.atime,
                    mtime=max(old.mtime, attr.mtime),
                    ctime=max(old.ctime, attr.ctime),
                )
        self._attrs[attr.fileid] = attr
        self._attr_time[attr.fileid] = self.sim.now
        if fh is not None:
            self._handles[attr.fileid] = fh

    def _block_put(self, fileid: int, block: int, data: bytes, dirty: bool):
        key = (fileid, block)
        old = self._blocks.pop(key, None)
        if old is not None:
            self._cache_bytes -= len(old.data)
            if old.dirty:
                dirty = True
        self._blocks[key] = _Block(data, dirty, self.sim.now)
        self._cache_bytes += len(data)
        if dirty:
            self._dirty.setdefault(fileid, set()).add(block)
        yield from self._disk_write(len(data))
        if self._engine:
            # LRU eviction, write-behind flavor: once over capacity,
            # evict down to a low-water mark (capacity minus one
            # window of blocks) so dirty victims accumulate into one
            # RTT-sized burst instead of one WAN round trip per
            # inserted block.  Dirty marks are cleared up front, same
            # hazard as below.
            victims = []
            if self._cache_bytes > self.cache.capacity_bytes:
                spare = (self._window() - 1) * self.cache.block_size
                target = max(self.cache.capacity_bytes - spare,
                             self.cache.capacity_bytes // 2)
                while self._cache_bytes > target and len(self._blocks) > 1:
                    vkey, vblock = next(iter(self._blocks.items()))
                    if vkey == key:
                        break
                    del self._blocks[vkey]
                    self._cache_bytes -= len(vblock.data)
                    if vblock.dirty:
                        self._dirty.get(vkey[0], set()).discard(vkey[1])
                        victims.append((vkey[0], vkey[1], vblock.data))
            yield from self._writeback_window(victims)
            return
        # LRU eviction; dirty victims are written back first.
        while self._cache_bytes > self.cache.capacity_bytes and len(self._blocks) > 1:
            vkey, vblock = next(iter(self._blocks.items()))
            if vkey == key:
                break
            del self._blocks[vkey]
            self._cache_bytes -= len(vblock.data)
            if vblock.dirty:
                # Clear the dirty mark *before* yielding to the (slow)
                # writeback: a writer that re-dirties this block while
                # the WRITE is in flight must not have its mark wiped
                # out afterwards, or the new data would never flush.
                self._dirty.get(vkey[0], set()).discard(vkey[1])
                yield from self._writeback_block(vkey[0], vkey[1], vblock.data)

    def _block_get(self, fileid: int, block: int):
        key = (fileid, block)
        entry = self._blocks.get(key)
        if entry is None:
            return None
        self._blocks.move_to_end(key)
        yield from self._disk_read(len(entry.data))
        return entry.data

    def _maybe_revalidate(self, fh: FileHandle):
        """Process generator: under "poll" consistency, refresh a stale
        cache entry from the server; returns the current attrs (or None).

        A changed mtime/size drops the file's cached blocks — the
        bounded-staleness overlay of [46] on top of NFS semantics.
        Files with local dirty data are ours by definition and skip
        revalidation (their shadow attrs are authoritative).
        """
        attr = self._attrs.get(fh.fileid)
        if attr is None or self.cache.consistency != "poll":
            return attr
        if self._dirty.get(fh.fileid):
            return attr
        age = self.sim.now - self._attr_time.get(fh.fileid, -1e18)
        if age <= self.cache.consistency_ttl:
            return attr
        call = CallMessage(
            0, pr.NFS_PROGRAM, pr.NFS_V3, int(Proc.GETATTR),
            cred=self._session_cred if self._session_cred is not None else NULL_AUTH,
            args=pr.pack_getattr_args(fh),
        )
        self.stats["revalidations"] += 1
        reply = yield from self._forward_with_recovery(call)
        try:
            status, fresh = pr.unpack_getattr_res(reply.results)
        except XdrError:
            return attr
        if status != NfsStatus.OK or fresh is None:
            self._attrs.pop(fh.fileid, None)
            return None
        if fresh.mtime != attr.mtime or fresh.size != attr.size:
            # someone else changed the file: drop our stale data
            self.stats["revalidation_drops"] += 1
            for key in [k for k in self._blocks if k[0] == fh.fileid]:
                if not self._blocks[key].dirty:
                    self._cache_bytes -= len(self._blocks[key].data)
                    del self._blocks[key]
        self._attrs[fh.fileid] = fresh
        self._attr_time[fh.fileid] = self.sim.now
        return fresh

    def _drop_file(self, fileid: int) -> None:
        for key in [k for k in self._blocks if k[0] == fileid]:
            self._cache_bytes -= len(self._blocks[key].data)
            del self._blocks[key]
        self._dirty.pop(fileid, None)
        self._attrs.pop(fileid, None)

    # -- serving ------------------------------------------------------------------

    def _serve(self, transport: Transport, record: bytes):
        yield self._serving.wait()
        cpu = self.host.cpu
        yield from charge_profile(self.sim, cpu, self.cost, len(record), self.account)
        try:
            call = CallMessage.decode(record)
        except (XdrError, RpcError):
            return
        key = None
        if call.prog == pr.NFS_PROGRAM and call.proc in _NFS_NON_IDEMPOTENT:
            key = drc_key(call)
            state, value = self._drc.check(key)
            if state == WAIT:
                cached = yield value
                if cached is not None:
                    yield from self._reply_cached(transport, cpu, cached)
                    return
                # original execution aborted; we run the call ourselves
            elif state == REPLAY:
                yield from self._reply_cached(transport, cpu, value)
                return
        with self.tracer.span("proxy.serve", cat="proxy", prog=call.prog,
                              proc=call.proc) if self.tracer.enabled else NULL_SPAN:
            try:
                reply = yield from self._handle(call)
            except BaseException:
                if key is not None:
                    self._drc.abort(key)
                raise
        encoded = reply.encode()
        if key is not None:
            self._drc.complete(key, encoded)
        yield from charge_profile(self.sim, cpu, self.cost, len(encoded), self.account)
        try:
            transport.send_record(encoded)
        except Exception:
            pass

    def _reply_cached(self, transport: Transport, cpu, encoded: bytes):
        yield from charge_profile(self.sim, cpu, self.cost, len(encoded), self.account)
        try:
            transport.send_record(encoded)
        except Exception:
            pass

    def _forward(self, call: CallMessage):
        self.stats["forwarded"] += 1
        reply = yield from self._forward_with_recovery(call)
        reply.xid = call.xid
        return reply

    def _forward_with_recovery(self, call: CallMessage):
        """Forward upstream with retry/reconnect; grid-routed when the
        striped data plane is attached (see :class:`UpstreamSession`)."""
        if self.grid is not None:
            return (yield from self.grid.forward(call))
        return (yield from self._leg.forward(call))

    def cycle_upstream(self):
        """Process generator: proactively tear down and re-establish the
        upstream session(s) — every backend leg in index order when the
        grid data plane is attached (see :meth:`UpstreamSession.cycle`)."""
        for leg in self._all_legs():
            yield from leg.cycle()

    def _handle(self, call: CallMessage):
        if call.cred.flavor != 0:
            self._session_cred = call.cred
        if call.prog != pr.NFS_PROGRAM or not self.cache.enabled:
            return (yield from self._forward(call))
        proc = call.proc
        handler = {
            int(Proc.GETATTR): self._h_getattr,
            int(Proc.LOOKUP): self._h_lookup,
            int(Proc.ACCESS): self._h_access,
            int(Proc.READ): self._h_read,
            int(Proc.WRITE): self._h_write,
            int(Proc.COMMIT): self._h_commit,
            int(Proc.SETATTR): self._h_setattr,
            int(Proc.CREATE): self._h_create,
            int(Proc.MKDIR): self._h_create,
            int(Proc.SYMLINK): self._h_create,
            int(Proc.REMOVE): self._h_remove,
            int(Proc.RMDIR): self._h_remove,
            int(Proc.RENAME): self._h_rename,
        }.get(proc)
        if handler is None:
            return (yield from self._forward(call))
        return (yield from handler(call))

    # -- attribute & name procedures ---------------------------------------------------

    def _h_getattr(self, call: CallMessage):
        fh = pr.unpack_getattr_args(call.args)
        attr = yield from self._maybe_revalidate(fh)
        if attr is not None:
            self.stats["attr_hits"] += 1
            self.stats["local_replies"] += 1
            yield from self._disk_read(256)  # attrs live in the disk cache
            return ReplyMessage(
                xid=call.xid, results=pr.pack_getattr_res(NfsStatus.OK, attr)
            )
        reply = yield from self._forward(call)
        if reply.results:
            try:
                status, got = pr.unpack_getattr_res(reply.results)
                if status == NfsStatus.OK:
                    self._remember_attr(fh, got)
                    merged = self._attrs.get(fh.fileid)
                    if merged is not None and merged is not got:
                        # dirty file: answer with the shadow view
                        reply.results = pr.pack_getattr_res(status, merged)
            except XdrError:
                pass
        return reply

    def _h_lookup(self, call: CallMessage):
        dir_fh, name = pr.unpack_lookup_args(call.args)
        hit = self._lookups.get((dir_fh.fileid, name))
        if hit is not None:
            fh, fileid = hit
            attr = self._attrs.get(fileid)
            dir_attr = self._attrs.get(dir_fh.fileid)
            if attr is not None:
                self.stats["local_replies"] += 1
                yield from self._disk_read(256)
                return ReplyMessage(
                    xid=call.xid,
                    results=pr.pack_lookup_res(NfsStatus.OK, fh, attr, dir_attr),
                )
        reply = yield from self._forward(call)
        try:
            status, fh, attr, dir_attr = pr.unpack_lookup_res(reply.results)
            if status == NfsStatus.OK and fh is not None and attr is not None:
                self._remember_attr(fh, attr)
                self._remember_attr(dir_fh, dir_attr)
                self._lookups[(dir_fh.fileid, name)] = (fh, attr.fileid)
                merged = self._attrs.get(attr.fileid)
                if merged is not None and merged is not attr:
                    reply.results = pr.pack_lookup_res(
                        status, fh, merged, self._attrs.get(dir_fh.fileid) or dir_attr
                    )
        except XdrError:
            pass
        return reply

    def _h_access(self, call: CallMessage):
        fh, want = pr.unpack_access_args(call.args)
        if self.cache.cache_access:
            cached = self._access.get((fh.fileid, 0))
            if cached is not None:
                attr = self._attrs.get(fh.fileid)
                self.stats["local_replies"] += 1
                yield from self._disk_read(128)
                return ReplyMessage(
                    xid=call.xid,
                    results=pr.pack_access_res(NfsStatus.OK, attr, cached & want),
                )
        # Ask for all bits so one round trip answers future queries too.
        full = CallMessage(
            call.xid, call.prog, call.vers, call.proc, call.cred, call.verf,
            pr.pack_access_args(fh, pr.ACCESS_ALL),
        )
        reply = yield from self._forward(full)
        try:
            status, attr, granted = pr.unpack_access_res(reply.results)
            if status == NfsStatus.OK:
                self._remember_attr(fh, attr)
                if self.cache.cache_access:
                    self._access[(fh.fileid, 0)] = granted
                merged = self._attrs.get(fh.fileid) or attr
                reply.results = pr.pack_access_res(status, merged, granted & want)
        except XdrError:
            pass
        return reply

    # -- data procedures -------------------------------------------------------------

    def _h_read(self, call: CallMessage):
        fh, offset, count = pr.unpack_read_args(call.args)
        bs = self.cache.block_size
        if not self.cache.cache_data or offset % bs or count > bs:
            return (yield from self._forward(call))
        block = offset // bs
        yield from self._maybe_revalidate(fh)
        data = yield from self._block_get(fh.fileid, block)
        if data is not None:
            self.stats["data_hits"] += 1
            self.stats["local_replies"] += 1
            attr = self._attrs.get(fh.fileid)
            size = attr.size if attr is not None else offset + len(data)
            chunk = data[:count]
            eof = offset + len(chunk) >= size
            return ReplyMessage(
                xid=call.xid,
                results=pr.pack_read_res(NfsStatus.OK, attr, chunk, eof),
            )
        self.stats["data_misses"] += 1
        if self._engine:
            return (yield from self._read_window(call, fh, block, count))
        # Fetch the whole block regardless of the requested count.
        fetch = CallMessage(
            call.xid, call.prog, call.vers, call.proc, call.cred, call.verf,
            pr.pack_read_args(fh, block * bs, bs),
        )
        reply = yield from self._forward(fetch)
        try:
            status, attr, data, eof = pr.unpack_read_res(reply.results)
            if status == NfsStatus.OK:
                if self.cryptor is not None and data:
                    from repro.proxy.cryptofs import AtRestIntegrityError

                    try:
                        data = self.cryptor.open(fh.fileid, block, data)
                        self.stats["blocks_opened"] += 1
                    except AtRestIntegrityError:
                        # server-side tampering: surface an I/O error
                        return ReplyMessage(
                            xid=call.xid,
                            results=pr.pack_read_res(NfsStatus.IO, attr),
                        )
                self._remember_attr(fh, attr)
                yield from self._block_put(fh.fileid, block, data, dirty=False)
                chunk = data[:count]
                reply.results = pr.pack_read_res(
                    status, attr, chunk, eof or (len(data) <= count and eof)
                )
        except Exception:
            pass
        return reply

    # -- the WAN transfer engine (streams > 1 or an explicit pipeline
    # depth) -------------------------------------------------------------

    def _window(self) -> int:
        cap = (
            self.pipeline_depth
            if self.pipeline_depth is not None
            else DEFAULT_PIPELINE_DEPTH
        )
        return max(leg.window(cap) for leg in self._all_legs())

    def _read_window(self, call: CallMessage, fh: FileHandle, block: int,
                     count: int):
        """Process generator: windowed read-ahead for a block-cache miss.

        Fetches the demanded block plus up to window-1 sequential
        successors in one burst.  Determinism rules: target blocks are
        chosen in ascending order, fetches are issued in that order
        (grid: one in-flight call per block, striped by the router;
        single server: blocks round-robin into one compound envelope
        per sub-channel, spawned in channel order), the joins happen in
        spawn order, and results are installed in ascending block order
        — reply arrival order never influences cache state."""
        bs = self.cache.block_size
        key = (fh.fileid, block)
        pending = self._inflight_reads.get(key)
        if pending is not None:
            # another reader's window already has this block in flight
            yield pending
            data = yield from self._block_get(fh.fileid, block)
            if data is not None:
                self.stats["data_hits"] += 1
                self.stats["local_replies"] += 1
                attr = self._attrs.get(fh.fileid)
                size = attr.size if attr is not None else block * bs + len(data)
                chunk = data[:count]
                return ReplyMessage(
                    xid=call.xid,
                    results=pr.pack_read_res(
                        NfsStatus.OK, attr, chunk, block * bs + len(chunk) >= size
                    ),
                )
        wanted = [block]
        attr = self._attrs.get(fh.fileid)
        if attr is not None:
            last_block = (attr.size + bs - 1) // bs - 1
            for nxt in range(block + 1, min(block + self._window(),
                                            last_block + 1)):
                if (fh.fileid, nxt) in self._blocks:
                    continue
                if (fh.fileid, nxt) in self._inflight_reads:
                    continue
                wanted.append(nxt)
        fetches = []
        for b in wanted:
            self._inflight_reads[(fh.fileid, b)] = self.sim.event(
                name=f"rdwin:{fh.fileid}:{b}"
            )
            fetches.append((b, CallMessage(
                call.xid, call.prog, call.vers, call.proc, call.cred,
                call.verf, pr.pack_read_args(fh, b * bs, bs),
            )))
        demanded = None        # parsed (status, attr, data, eof) for `block`
        demanded_reply = None  # raw ReplyMessage for `block`
        self.stats["forwarded"] += len(fetches)
        try:
            replies = yield from self._issue_bulk(fetches)
            for (b, _fetch), reply in zip(fetches, replies):
                if reply is None:
                    continue
                if b == block:
                    demanded_reply = reply
                try:
                    status, rattr, data, eof = pr.unpack_read_res(reply.results)
                except XdrError:
                    continue
                if status != NfsStatus.OK:
                    if b == block:
                        demanded = (status, rattr, b"", False)
                    continue
                if self.cryptor is not None and data:
                    from repro.proxy.cryptofs import AtRestIntegrityError

                    try:
                        data = self.cryptor.open(fh.fileid, b, data)
                        self.stats["blocks_opened"] += 1
                    except AtRestIntegrityError:
                        if b == block:
                            demanded = (NfsStatus.IO, rattr, b"", False)
                        continue
                self._remember_attr(fh, rattr)
                if data:
                    yield from self._block_put(fh.fileid, b, data, dirty=False)
                if b == block:
                    demanded = (status, self._attrs.get(fh.fileid) or rattr,
                                data, eof)
        finally:
            # waiters always wake, even when the fetch failed — they
            # re-check the cache and fall back to their own fetch
            for b in wanted:
                ev = self._inflight_reads.pop((fh.fileid, b), None)
                if ev is not None and not ev.triggered:
                    ev.succeed(None)
        if demanded is not None:
            status, rattr, data, eof = demanded
            if status != NfsStatus.OK:
                return ReplyMessage(
                    xid=call.xid, results=pr.pack_read_res(status, rattr)
                )
            chunk = data[:count]
            return ReplyMessage(
                xid=call.xid,
                results=pr.pack_read_res(status, rattr, chunk, eof),
            )
        if demanded_reply is not None:
            # mirrored from the historical path: an unparseable upstream
            # reply is passed through unmodified
            demanded_reply.xid = call.xid
            return demanded_reply
        # the window fetch never produced a reply for the demanded
        # block; fall back to the historical single fetch
        fetch = CallMessage(
            call.xid, call.prog, call.vers, call.proc, call.cred, call.verf,
            pr.pack_read_args(fh, block * bs, bs),
        )
        return (yield from self._forward(fetch))

    def _issue_bulk(self, fetches):
        """Process generator: issue a burst of bulk calls, return one
        Optional[ReplyMessage] per call in issue order.

        Spawn order, channel grouping, and the join order are all
        functions of the (deterministic) input list — completion order
        never leaks into the result."""
        calls = [c for _b, c in fetches]
        if self.grid is not None:
            procs = [
                self.sim.spawn(self.grid.forward(c), name=f"bulk:{b}")
                for b, c in fetches
            ]
            replies = yield all_of(self.sim, procs)
            return list(replies)
        leg = self._leg
        groups: List[List[int]] = [[] for _ in range(leg.streams)]
        for i in range(len(calls)):
            groups[i % leg.streams].append(i)
        replies: List[Optional[ReplyMessage]] = [None] * len(calls)
        spawned = []
        for ch, idxs in enumerate(groups):
            if not idxs:
                continue
            if len(idxs) == 1:
                # a single call needs no envelope (and single calls are
                # what feeds the bulk RTT estimator)
                gen = leg.forward(calls[idxs[0]], channel=ch)
            else:
                gen = leg.forward_batch([calls[i] for i in idxs], channel=ch)
            spawned.append((idxs, self.sim.spawn(gen, name=f"bulk-ch{ch}")))
        results = yield all_of(self.sim, [p for _idxs, p in spawned])
        for (idxs, _p), res in zip(spawned, results):
            if len(idxs) == 1:
                replies[idxs[0]] = res
            else:
                for i, r in zip(idxs, res):
                    replies[i] = r
        return replies

    def _writeback_window(self, items):
        """Process generator: write back ``(fileid, block, data)`` items
        in RTT-sized bursts (the write-behind half of the engine).

        Items are sealed and issued in list order; statuses are
        consumed in the same order, so accounting is independent of
        reply arrival."""
        if not items:
            return
        start = 0
        while start < len(items):
            # re-sized per burst: the first burst of a cold session runs
            # at window 1 and seeds the bulk RTT estimator, widening the
            # bursts that follow it
            window = self._window()
            burst = items[start:start + window]
            start += len(burst)
            calls = []
            kept = []
            for fileid, blk, data in burst:
                fh = self._handles.get(fileid)
                if fh is None:
                    continue
                if self.cryptor is not None and data:
                    data = self.cryptor.seal(fileid, blk, data)
                    self.stats["blocks_sealed"] += 1
                kept.append((fileid, blk))
                calls.append(CallMessage(
                    0, pr.NFS_PROGRAM, pr.NFS_V3, int(Proc.WRITE),
                    cred=(self._session_cred
                          if self._session_cred is not None else NULL_AUTH),
                    args=pr.pack_write_args(
                        fh, blk * self.cache.block_size, data, pr.FILE_SYNC
                    ),
                ))
            if not calls:
                continue
            replies = yield from self._issue_bulk(
                list(zip([blk for _f, blk in kept], calls))
            )
            for reply in replies:
                status, nwritten = -1, 0  # no reply, or an undecodable one
                if reply is not None:
                    try:
                        status, _after, nwritten, _cm, _v = pr.unpack_write_res(
                            reply.results
                        )
                    except XdrError:
                        pass
                if status == NfsStatus.OK:
                    self.stats["writeback_blocks"] += 1
                    self.stats["writeback_bytes"] += nwritten
                else:
                    self.stats["writeback_errors"] += 1

    def _h_write(self, call: CallMessage):
        fh, offset, stable, payload = pr.unpack_write_args(call.args)
        bs = self.cache.block_size
        if not self.cache.write_back:
            reply = yield from self._forward(call)
            try:
                status, after, _c, _cm, _v = pr.unpack_write_res(reply.results)
                if status == NfsStatus.OK:
                    self._remember_attr(fh, after)
            except XdrError:
                pass
            return reply
        # Absorb at any offset: split the payload into block spans and
        # merge each over whatever the cache already holds.
        pos = offset
        view = memoryview(payload)
        while view.nbytes > 0:
            block = pos // bs
            inner = pos - block * bs
            take = min(bs - inner, view.nbytes)
            existing = yield from self._block_get(fh.fileid, block)
            if existing is None and inner > 0:
                # partial block with unknown prefix: zero-fill (the kernel
                # client only produces this beyond the old EOF)
                existing = b""
            merged = bytearray(existing or b"")
            if len(merged) < inner + take:
                merged.extend(b"\x00" * (inner + take - len(merged)))
            merged[inner : inner + take] = view[:take].tobytes()
            yield from self._block_put(fh.fileid, block, bytes(merged), dirty=True)
            pos += take
            view = view[take:]
        self.stats["writes_absorbed"] += 1
        self.stats["local_replies"] += 1
        attr = self._shadow_write_attr(fh, offset + len(payload))
        return ReplyMessage(
            xid=call.xid,
            results=pr.pack_write_res(
                NfsStatus.OK, attr, len(payload), pr.FILE_SYNC, b"sgfsprox"
            ),
        )

    def _shadow_write_attr(self, fh: FileHandle, end: int) -> Optional[Fattr3]:
        attr = self._attrs.get(fh.fileid)
        if attr is None:
            attr = Fattr3(
                ftype=1, mode=0o644, nlink=1, uid=0, gid=0, size=0, used=0,
                fsid=fh.fsid, fileid=fh.fileid, atime=self.sim.now,
                mtime=self.sim.now, ctime=self.sim.now,
            )
        new = Fattr3(
            ftype=attr.ftype, mode=attr.mode, nlink=attr.nlink, uid=attr.uid,
            gid=attr.gid, size=max(attr.size, end), used=max(attr.used, end),
            fsid=attr.fsid, fileid=attr.fileid, atime=attr.atime,
            mtime=self.sim.now, ctime=self.sim.now,
        )
        self._attrs[fh.fileid] = new
        self._handles[fh.fileid] = fh
        return new

    def _h_commit(self, call: CallMessage):
        fh, _off, _cnt = pr.unpack_commit_args(call.args)
        if self.cache.write_back:
            # Write-back absorbs durability: the data ages out to the
            # server on eviction/teardown, not at every client COMMIT —
            # the single-user-session relaxation the paper's WAN results
            # (and its separately-reported write-back times) rest on.
            self.stats["local_replies"] += 1
            attr = self._attrs.get(fh.fileid)
            return ReplyMessage(
                xid=call.xid,
                results=pr.pack_commit_res(NfsStatus.OK, attr, b"sgfsprox"),
            )
            yield  # pragma: no cover
        yield from self._flush_file(fh)
        reply = yield from self._forward(call)
        try:
            status, after, _verf = pr.unpack_commit_res(reply.results)
            if status == NfsStatus.OK:
                self._remember_attr(fh, after)
        except XdrError:
            pass
        return reply

    def _h_setattr(self, call: CallMessage):
        fh, sattr = pr.unpack_setattr_args(call.args)
        if sattr.size is not None:
            self._drop_file(fh.fileid)
        reply = yield from self._forward(call)
        try:
            status, after = pr.unpack_setattr_res(reply.results)
            if status == NfsStatus.OK:
                self._remember_attr(fh, after)
        except XdrError:
            pass
        return reply

    def _h_create(self, call: CallMessage):
        reply = yield from self._forward(call)
        try:
            status, fh, attr, _dir_after = pr.unpack_create_res(reply.results)
            if status == NfsStatus.OK and fh is not None and attr is not None:
                self._remember_attr(fh, attr)
                dir_fh, name = pr.unpack_diropargs_prefix(call.args)
                self._lookups[(dir_fh.fileid, name)] = (fh, attr.fileid)
        except XdrError:
            pass
        return reply

    def _h_remove(self, call: CallMessage):
        dir_fh, name = pr.unpack_remove_args(call.args)
        hit = self._lookups.pop((dir_fh.fileid, name), None)
        if hit is not None:
            # Dirty data of a deleted file is never written back — the
            # Seismic §6.3.2 "only final results cross the WAN" effect.
            self._drop_file(hit[1])
            if self.cryptor is not None:
                self.cryptor.forget_file(hit[1])
        self._attrs.pop(dir_fh.fileid, None)
        return (yield from self._forward(call))

    def _h_rename(self, call: CallMessage):
        f_dir, f_name, t_dir, t_name = pr.unpack_rename_args(call.args)
        self._lookups.pop((f_dir.fileid, f_name), None)
        self._lookups.pop((t_dir.fileid, t_name), None)
        self._attrs.pop(f_dir.fileid, None)
        self._attrs.pop(t_dir.fileid, None)
        return (yield from self._forward(call))

    # -- write-back ---------------------------------------------------------------------

    def _writeback_block(self, fileid: int, block: int, data: bytes):
        fh = self._handles.get(fileid)
        if fh is None:
            return
        if self.cryptor is not None and data:
            data = self.cryptor.seal(fileid, block, data)
            self.stats["blocks_sealed"] += 1
        call = CallMessage(
            0, pr.NFS_PROGRAM, pr.NFS_V3, int(Proc.WRITE),
            cred=self._session_cred if self._session_cred is not None else NULL_AUTH,
            args=pr.pack_write_args(fh, block * self.cache.block_size, data, pr.FILE_SYNC),
        )
        reply = yield from self._forward_with_recovery(call)
        try:
            status, _after, count, _cm, _v = pr.unpack_write_res(reply.results)
        except XdrError:
            status, count = -1, 0
        if status == NfsStatus.OK:
            self.stats["writeback_blocks"] += 1
            self.stats["writeback_bytes"] += count
        else:
            self.stats["writeback_errors"] += 1

    def _flush_file(self, fh: FileHandle):
        dirty = sorted(self._dirty.pop(fh.fileid, set()))
        if self._engine:
            items = []
            for block in dirty:
                entry = self._blocks.get((fh.fileid, block))
                if entry is None or not entry.dirty:
                    continue
                entry.dirty = False
                yield from self._disk_read(len(entry.data))
                items.append((fh.fileid, block, entry.data))
            yield from self._writeback_window(items)
            return
        for block in dirty:
            entry = self._blocks.get((fh.fileid, block))
            if entry is None or not entry.dirty:
                continue
            entry.dirty = False
            yield from self._disk_read(len(entry.data))
            yield from self._writeback_block(fh.fileid, block, entry.data)

    def writeback(self):
        """Flush every dirty block — session teardown.

        Returns (blocks, bytes) written back; the harness times this to
        reproduce the paper's separately-reported write-back cost.
        """
        before_blocks = self.stats["writeback_blocks"]
        before_bytes = self.stats["writeback_bytes"]
        with self.tracer.span("proxy.writeback",
                              cat="proxy") if self.tracer.enabled else NULL_SPAN:
            if self._engine:
                # Window the flush across files, not just within one:
                # teardown after a many-small-files workload (PostMark,
                # MAB) is otherwise one WAN round trip per file.
                items = []
                for fileid in list(self._dirty.keys()):
                    fh = self._handles.get(fileid)
                    if fh is None:
                        self._dirty.pop(fileid, None)
                        continue
                    for block in sorted(self._dirty.pop(fileid, set())):
                        entry = self._blocks.get((fileid, block))
                        if entry is None or not entry.dirty:
                            continue
                        entry.dirty = False
                        yield from self._disk_read(len(entry.data))
                        items.append((fileid, block, entry.data))
                yield from self._writeback_window(items)
            else:
                for fileid in list(self._dirty.keys()):
                    fh = self._handles.get(fileid)
                    if fh is None:
                        self._dirty.pop(fileid, None)
                        continue
                    yield from self._flush_file(fh)
        return (
            self.stats["writeback_blocks"] - before_blocks,
            self.stats["writeback_bytes"] - before_bytes,
        )

    # -- dynamic reconfiguration (§4.2) ----------------------------------------

    def reload_config(self, cache: Optional[ProxyCacheConfig] = None,
                      rekey: bool = False):
        """Process generator: apply a configuration reload to the live
        session.

        Serving pauses at the gate while the change lands: the cache
        section is swapped (disabling the cache flushes dirty data
        first so nothing is stranded), and ``rekey`` forces an SSL
        renegotiation — the signal used when a certificate is rotated
        or a long-lived session's keys should be refreshed.
        """
        self._serving.close()
        try:
            if cache is not None:
                if not cache.enabled or not cache.write_back:
                    yield from self.writeback()
                self.cache = cache
            if rekey and hasattr(self._upstream, "renegotiate"):
                self._upstream.renegotiate()
        finally:
            self._serving.open()

    @property
    def dirty_bytes(self) -> int:
        return sum(
            len(self._blocks[(f, b)].data)
            for f, blocks in self._dirty.items()
            for b in blocks
            if (f, b) in self._blocks
        )

    def _age_flusher(self):
        age = self.cache.flush_age
        while self._listener is not None:
            yield self.sim.timeout(age)
            cutoff = self.sim.now - age
            for fileid in list(self._dirty.keys()):
                fh = self._handles.get(fileid)
                if fh is None:
                    continue
                old = [
                    b for b in self._dirty.get(fileid, set())
                    if (fileid, b) in self._blocks
                    and self._blocks[(fileid, b)].dirtied_at <= cutoff
                ]
                for block in sorted(old):
                    entry = self._blocks[(fileid, block)]
                    if entry.dirty:
                        entry.dirty = False
                        self._dirty[fileid].discard(block)
                        yield from self._writeback_block(fileid, block, entry.data)
