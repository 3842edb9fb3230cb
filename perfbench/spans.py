"""Host-time spans installed from outside the program.

The benchmark wraps public entry points of the ``repro`` package at run
time (:func:`install`); nothing under ``src/`` knows about it.

Two kinds of wrapper:

- a plain function gets one span per call;
- a generator function (a simulated-process step such as
  ``RpcClient.call_detailed``) gets one span per *resume*: every time the
  simulator drives the generator one step, the wrapper times that step on
  the host clock.  The steps of one call share a logical span id, and the
  wrapper also notes the virtual time from the first step to the return.

Every host span records its name, start, end, parent span and trace id
in flat arrays kept in memory; :meth:`SpanRecorder.write` dumps them at
the end of the run.  Steps nest on the host call stack (an outer step
drives the inner generator's step), so the spans form a tree and a
layer's self time is its spans' durations minus the part their child
spans cover (:meth:`SpanRecorder.self_times`).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: parent index of a span opened with nothing else open
NO_PARENT = -1
#: the event loop: each span directly under it starts a new trace
LOOP_SPAN = "sim.run"


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # one entry per host span, struct-of-arrays to keep memory flat
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.logical = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._next_logical = 0
        self._loop_id = self._intern(LOOP_SPAN)
        #: name -> number of logical calls
        self.calls: Dict[str, int] = defaultdict(int)
        #: name -> summed size argument (bytes) for sized wrappers
        self.amount: Dict[str, float] = defaultdict(float)
        #: name -> list of virtual durations of generator calls
        self.virtual: Dict[str, List[float]] = defaultdict(list)
        #: virtual time a CPU.consume call spent waiting for a core
        self.cpu_wait: List[float] = []
        self.cpu_busy: List[float] = []
        #: the simulator whose clock virtual durations read
        self.sim = None

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, nid: int, logical: int) -> int:
        stack = self._stack
        idx = len(self.name)
        if stack:
            parent = stack[-1]
            ptrace = self.trace[parent]
            trace = logical if self.name[parent] == self._loop_id else ptrace
        else:
            parent = NO_PARENT
            trace = logical
        self.name.append(nid)
        self.parent.append(parent)
        self.trace.append(trace)
        self.logical.append(logical)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def _new_logical(self, name: str) -> int:
        self.calls[name] += 1
        self._next_logical += 1
        return self._next_logical

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             size_arg: Optional[int] = None) -> Callable:
        """Wrap ``fn`` so every call (or generator step) records a span.

        ``size_arg`` names a positional argument whose ``len`` is added
        to :attr:`amount` (bytes through a cipher, for instance).
        """
        nid = self._intern(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, nid)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            logical = self._new_logical(name)
            if size_arg is not None:
                self.amount[name] += len(args[size_arg])
            idx = self._open(nid, logical)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return call

    def _wrap_generator(self, fn: Callable, name: str, nid: int) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            logical = recorder._new_logical(name)
            v_start = recorder.sim.now if recorder.sim is not None else 0.0
            gen = fn(*args, **kwargs)
            send_value = None
            thrown = None
            while True:
                idx = recorder._open(nid, logical)
                try:
                    if thrown is None:
                        yielded = gen.send(send_value)
                    else:
                        exc, thrown = thrown, None
                        yielded = gen.throw(exc)
                except StopIteration as stop:
                    recorder._close(idx)
                    recorder._finish_virtual(name, v_start, args, kwargs)
                    return stop.value
                except BaseException:
                    recorder._close(idx)
                    raise
                recorder._close(idx)
                try:
                    send_value = yield yielded
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # delivered into the inner step
                    thrown = exc

        return call

    def _finish_virtual(self, name: str, v_start: float, args, kwargs) -> None:
        if self.sim is None:
            return
        elapsed = self.sim.now - v_start
        self.virtual[name].append(elapsed)
        if name == "sim.cpu":
            # CPU.consume(self, seconds, ...): busy = seconds / speed
            seconds = args[1] if len(args) > 1 else kwargs["seconds"]
            busy = seconds / args[0].speed
            self.cpu_busy.append(busy)
            self.cpu_wait.append(elapsed - busy)

    # -- results ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> Dict[str, float]:
        """Host self seconds per span name: each span's duration minus
        the part of it its direct child spans cover."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p != NO_PARENT:
                child[p] += end[i] - start[i]
        out: Dict[str, float] = defaultdict(float)
        names, name = self.names, self.name
        for i in range(n):
            out[names[name[i]]] += (end[i] - start[i]) - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        """Dump every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": ["name:i", "parent:i", "trace:i", "logical:i",
                       "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.trace, self.logical,
                        self.start, self.end):
                arr.tofile(fh)


# -- installing the wrappers -------------------------------------------------


def _replace_everywhere(orig: Callable, new: Callable, undo: list) -> None:
    """Rebind every ``repro`` module global that refers to ``orig``,
    covering modules that imported the function by name."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, attr, value))
                setattr(mod, attr, new)


def _patch_method(rec: SpanRecorder, cls: type, attr: str, name: str,
                  undo: list, size_arg: Optional[int] = None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        new = classmethod(rec.wrap(raw.__func__, name, size_arg))
    else:
        new = rec.wrap(raw, name, size_arg)
    undo.append((cls, attr, raw))
    setattr(cls, attr, new)


def install(rec: SpanRecorder) -> list:
    """Wrap the entry points each per-layer metric is read from.

    Returns an undo list for :func:`uninstall`.  Importing
    ``repro.harness`` first loads every module whose globals we rebind.
    """
    import repro.harness  # noqa: F401  (loads the whole stack)
    from repro.core import setups
    from repro.core.topology import Testbed
    from repro.crypto import rsa, suites
    from repro.grid.router import GridRouter
    from repro.gsi.certs import CertificateAuthority
    from repro.net.network import Network
    from repro.nfs import protocol
    from repro.proxy.client_proxy import SgfsClientProxy, UpstreamSession
    from repro.rpc import record
    from repro.rpc.client import RpcClient
    from repro.rpc.messages import CallMessage, ReplyMessage
    from repro.sim.core import Simulator
    from repro.sim.cpu import CPU
    from repro.tls import channel
    from repro.vfs.fs import VirtualFS

    undo: list = []

    def function(mod, attr: str, name: str) -> None:
        orig = getattr(mod, attr)
        _replace_everywhere(orig, rec.wrap(orig, name), undo)

    def method(cls, attr: str, name: str, size_arg: Optional[int] = None):
        _patch_method(rec, cls, attr, name, undo, size_arg)

    # the event loop: remember the simulator so generator spans can read
    # its virtual clock
    for attr in ("run", "run_until_event"):
        raw = Simulator.__dict__[attr]

        def bind(raw=raw):
            @functools.wraps(raw)
            def run(self, *args, **kwargs):
                rec.sim = self
                return raw(self, *args, **kwargs)
            return run

        undo.append((Simulator, attr, raw))
        setattr(Simulator, attr, rec.wrap(bind(), LOOP_SPAN))

    # set-up
    function(rsa, "generate_keypair", "crypto.keygen")
    method(CertificateAuthority, "issue_identity", "gsi.issue")
    method(Testbed, "build", "core.testbed")
    for key, builder in list(setups.SETUP_BUILDERS.items()):
        undo.append((setups.SETUP_BUILDERS, key, builder))
        setups.SETUP_BUILDERS[key] = rec.wrap(builder, "core.mount")
    method(SgfsClientProxy, "start", "core.mount")

    # crypto
    method(rsa.RsaKeyPair, "sign", "crypto.rsa")
    method(rsa.RsaKeyPair, "decrypt", "crypto.rsa")
    method(rsa.RsaPublicKey, "verify", "crypto.rsa")
    method(rsa.RsaPublicKey, "encrypt", "crypto.rsa")
    for cls in (suites.NullCipherState, suites.Rc4State, suites.AesCbcState,
                suites.FastXorState):
        for attr in ("encrypt", "decrypt"):
            method(cls, attr, "crypto.cipher", size_arg=1)

    # record layers
    method(channel.SecureChannel, "send_record", "tls.record")
    method(channel.SecureChannel, "queue_record", "tls.record")
    function(channel, "client_handshake", "tls.handshake")
    function(channel, "server_handshake", "tls.server_handshake")
    function(record, "frame_record", "rpc.record")
    method(record.RecordReader, "feed", "rpc.record")
    method(record.RecordReader, "next_record", "rpc.record")

    # XDR: the NFS argument/result codecs and the RPC message envelope
    for attr, value in list(vars(protocol).items()):
        if (attr.startswith(("pack_", "unpack_")) and inspect.isfunction(value)
                and value.__module__ == protocol.__name__):
            function(protocol, attr, "xdr.codec")
    for cls in (CallMessage, ReplyMessage):
        method(cls, "encode", "xdr.codec")
        method(cls, "decode", "xdr.codec")

    # simulated processes and the layers they cross
    method(RpcClient, "call_detailed", "rpc.call")
    method(UpstreamSession, "forward", "proxy.upstream")
    method(UpstreamSession, "forward_batch", "proxy.upstream")
    method(GridRouter, "forward", "grid.forward")
    method(CPU, "consume", "sim.cpu")
    method(Network, "deliver", "net.deliver")
    for attr, value in list(vars(VirtualFS).items()):
        if not attr.startswith("_") and inspect.isfunction(value):
            method(VirtualFS, attr, "vfs")
    return undo


def uninstall(undo: list) -> None:
    """Restore everything :func:`install` replaced, newest first."""
    for target, attr, value in reversed(undo):
        if isinstance(target, dict):
            target[attr] = value
        else:
            setattr(target, attr, value)
