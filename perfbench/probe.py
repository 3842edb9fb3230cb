"""Operation timing at the ``NfsClient`` API, from outside the program.

:class:`OpProbe` hands each workload a :class:`~repro.core.setups.Mount`
whose ``client`` is a :class:`TimedClient`.  Every call the workload
makes through it is one *operation*: its virtual latency is recorded,
and a raised ``NfsClientError`` (including the ones PostMark catches and
ignores) or a short or corrupt whole-file read counts as a failure.
Calls the client makes internally (``write_file``'s own open, write and
close) go to the real client and are not counted again.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List, Optional

#: generator methods of ``NfsClient`` that a workload can issue
OPS = frozenset({
    "stat", "exists", "access", "setattr", "mkdir", "create", "symlink",
    "readlink", "unlink", "rmdir", "rename", "link", "readdir", "open",
    "read", "write", "fsync", "close", "read_file", "write_file",
})


class OpProbe:
    """Latency samples, attempt and failure counts of one run."""

    def __init__(self, error_type: type = Exception):
        self.error_type = error_type
        #: virtual seconds per operation; a failed one is +inf, so it
        #: misses any latency limit
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: whole-file reads that disagreed with what was written
        self.corrupt = 0
        #: host clock when the first workload started (end of set-up)
        self.first_run_host: Optional[float] = None
        #: every mount a workload ran on, for the end-of-run checks
        self.mounts: list = []
        #: the wrapped workloads, in launch order
        self.workloads: list = []
        #: bytes written by ``write_file`` (and later writes) per path
        self._shadow: Dict[str, bytearray] = {}

    def workload(self, inner) -> "ProbedWorkload":
        probed = ProbedWorkload(inner, self)
        self.workloads.append(probed)
        return probed

    # -- one operation --------------------------------------------------------

    def timed(self, sim, name: str, fn, args, kwargs):
        """Process generator: run one client call and account for it."""
        self.attempted += 1
        t0 = sim.now
        try:
            result = yield from fn(*args, **kwargs)
        except self.error_type:
            self.failed += 1
            self.latencies.append(math.inf)
            raise
        if self._read_is_bad(name, args, result):
            self.corrupt += 1
            self.failed += 1
            self.latencies.append(math.inf)
        else:
            self.latencies.append(sim.now - t0)
        return result

    def _read_is_bad(self, name: str, args, result) -> bool:
        """Keep the shadow copy current; True for a short or corrupt
        ``read_file`` of a file written through ``write_file``."""
        shadow = self._shadow
        if name == "write_file":
            shadow[args[0]] = bytearray(args[1])
        elif name == "write":
            buf = shadow.get(args[0].path)
            if buf is not None:
                offset, data = args[1], args[2]
                if len(buf) < offset:
                    buf.extend(bytes(offset - len(buf)))
                buf[offset:offset + len(data)] = data
        elif name in ("unlink", "rename"):
            shadow.pop(args[0], None)
        elif name == "read_file":
            expected = shadow.get(args[0])
            return expected is not None and bytes(result) != expected
        return False


class TimedClient:
    """The workload's view of an ``NfsClient``: every API call is timed."""

    def __init__(self, client, sim, probe: OpProbe):
        self._client = client
        self._sim = sim
        self._probe = probe

    def __getattr__(self, name: str):
        attr = getattr(self._client, name)
        if name not in OPS:
            return attr
        probe, sim = self._probe, self._sim

        def op(*args, **kwargs):
            return probe.timed(sim, name, attr, args, kwargs)

        return op


class ProbedWorkload:
    """Runs ``inner`` on a mount whose client is a :class:`TimedClient`."""

    def __init__(self, inner, probe: OpProbe):
        self.inner = inner
        self._probe = probe

    def __getattr__(self, name: str):
        # prepare / results / bytes_moved, when the workload has them
        return getattr(self.inner, name)

    def run(self, mount):
        probe = self._probe
        if probe.first_run_host is None:
            probe.first_run_host = time.perf_counter()
        probe.mounts.append(mount)
        timed = dataclasses.replace(
            mount, client=TimedClient(mount.client, mount.tb.sim, probe)
        )
        return (yield from self.inner.run(timed))
