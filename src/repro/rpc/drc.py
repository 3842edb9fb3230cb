"""Duplicate-request cache (DRC) for RPC servers.

NFSv3 procedures like REMOVE, RENAME, MKDIR, and exclusive CREATE are
not idempotent: a retransmitted request that re-executes after the first
execution already committed returns a spurious error (NOENT/EXIST) or
double-applies a mutation.  Real NFS servers defend against this with a
duplicate-request cache (Juszczak, USENIX '89): the reply to each
non-idempotent call is retained, keyed by the caller's identity and xid,
and a retransmission replays the cached reply instead of re-executing.

This DRC implements both halves of that defence:

- **replay** — a duplicate of a *completed* call returns the cached
  encoded reply bytes verbatim.
- **park** — a duplicate of an *in-progress* call waits on the original
  execution instead of racing it, then replays its reply.

Entries age out on the simulated clock and the table is bounded by an
LRU cap (in-progress entries are never evicted).  The cache is a plain
object so every serving hop — kernel NFS server, UDP server, and both
SGFS proxies (which rewrite xids, defeating any end-to-end cache) — can
own its own instance.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, deque
from typing import Deque, Optional, Tuple

from repro.rpc.auth import AUTH_SYS, AuthSys
from repro.rpc.messages import CallMessage
from repro.sim.core import Simulator
from repro.xdr import XdrError

#: check() states
MISS = "miss"
REPLAY = "replay"
WAIT = "wait"


def drc_key(call: CallMessage) -> Tuple:
    """Cache key for a call: (client identity, xid, proc, args checksum).

    The identity part uses the AUTH_SYS (machinename, uid) pair, which
    is stable across reconnects — the xid alone is not unique across
    clients.  The args checksum guards against the (pathological) case
    of an xid being reused for a different request.
    """
    if call.cred.flavor == AUTH_SYS:
        try:
            sys = AuthSys.from_opaque(call.cred)
            ident: Tuple = (sys.machinename, sys.uid)
        except XdrError:  # malformed AUTH_SYS body
            ident = ("-", call.cred.flavor)
    else:
        ident = ("-", call.cred.flavor)
    return (ident, call.xid, call.proc, zlib.crc32(call.args))


class _Entry:
    __slots__ = ("reply", "done_at", "waiters")

    def __init__(self):
        self.reply: Optional[bytes] = None  # None while in progress
        self.done_at: float = 0.0
        self.waiters: list = []


class DuplicateRequestCache:
    """Bounded, age-limited reply cache with duplicate parking."""

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 256,
        max_age: float = 120.0,
        name: str = "drc",
    ):
        self.sim = sim
        self.capacity = capacity
        self.max_age = max_age
        self.name = name
        # Plain attributes, not obs counters: misses happen on every
        # non-idempotent call of a fault-free run and eager registration
        # would perturb the golden registry snapshots.
        self.misses = 0
        self.replays = 0
        self.parks = 0
        self.evictions = 0
        self.expirations = 0
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        #: (done_at, key) per complete(), in nondecreasing done_at order
        #: (done_at is the simulated clock), so expiry pops from the left
        #: instead of scanning the table.  Keys, not entries: a record
        #: must not keep an evicted reply's bytes alive.
        self._expiry: "Deque[Tuple[float, Tuple]]" = deque()
        self._c_replays = None
        self._c_parks = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- core protocol ---------------------------------------------------

    def check(self, key: Tuple):
        """Classify an incoming call.

        Returns one of::

            (MISS, None)     -- new call; caller must execute it and then
                                call complete(key, encoded) or abort(key)
            (REPLAY, bytes)  -- duplicate of a completed call; send bytes
            (WAIT, Event)    -- duplicate of an in-progress call; yield
                                the event.  It fires with the encoded
                                reply bytes, or with None if the original
                                execution aborted (then re-execute).
        """
        self._expire()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._entries[key] = _Entry()
            return (MISS, None)
        if entry.reply is not None:
            self.replays += 1
            if self.sim.obs.enabled:
                if self._c_replays is None:
                    self._c_replays = self.sim.obs.counter(
                        "rpc.drc", "replays", cache=self.name
                    )
                self._c_replays.inc()
            self._entries.move_to_end(key)
            return (REPLAY, entry.reply)
        self.parks += 1
        if self.sim.obs.enabled:
            if self._c_parks is None:
                self._c_parks = self.sim.obs.counter(
                    "rpc.drc", "parks", cache=self.name
                )
            self._c_parks.inc()
        ev = self.sim.event(name=f"drc-park:{self.name}")
        entry.waiters.append(ev)
        return (WAIT, ev)

    def complete(self, key: Tuple, encoded: bytes) -> None:
        """Record the encoded reply for a MISS and wake parked duplicates."""
        entry = self._entries.get(key)
        if entry is None:  # evicted/expired mid-flight; recreate
            entry = _Entry()
            self._entries[key] = entry
        entry.reply = encoded
        entry.done_at = self.sim.now
        self._expiry.append((entry.done_at, key))
        self._entries.move_to_end(key)
        waiters, entry.waiters = entry.waiters, []
        for ev in waiters:
            ev.succeed(encoded)
        self._trim()

    def abort(self, key: Tuple) -> None:
        """The MISS execution failed before producing a reply.

        Exactly one parked waiter (if any) is promoted to become the new
        executor — it wakes with None and must run the call itself; the
        entry stays in-progress for the remaining waiters.  With no
        waiters the entry is dropped so a later retransmission re-executes.
        """
        entry = self._entries.get(key)
        if entry is None or entry.reply is not None:
            return
        if entry.waiters:
            entry.waiters.pop(0).succeed(None)
        else:
            del self._entries[key]

    # -- bounds ----------------------------------------------------------

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            victim = None
            for key, entry in self._entries.items():
                if entry.reply is not None:  # never evict in-progress
                    victim = key
                    break
            if victim is None:
                return
            del self._entries[victim]
            self.evictions += 1

    def _expire(self) -> None:
        """Drop completed entries older than ``max_age``.

        A popped record is only a hint: the live entry may since have
        been evicted, re-executed, or re-completed later, so the entry
        goes only if it still satisfies the age predicate itself.
        """
        now = self.sim.now
        expiry = self._expiry
        while expiry and now - expiry[0][0] > self.max_age:
            _done_at, key = expiry.popleft()
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.reply is not None
                and now - entry.done_at > self.max_age
            ):
                del self._entries[key]
                self.expirations += 1
