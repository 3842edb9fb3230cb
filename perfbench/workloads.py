"""The benchmark's workloads: configuration, one measured run, checks.

Each workload drives the program only through public APIs:
``run_workload`` / ``run_fleet`` from :mod:`repro.harness`, the workload
classes of :mod:`repro.workloads`, and the ``Mount`` / ``NfsClient``
objects those calls hand to a workload.  All of them are closed loops:
every simulated client issues its next operation only after the previous
one returned.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from probe import OpProbe
import stats

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: full configuration, recorded in every result's manifest
    config: Dict[str, object]
    #: span names the traced run must see fire on this workload
    spans: tuple


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="grid-fleet",
        why=("24 sgfs-aes LAN clients write and twice re-read 1 MiB each, "
             "striped over 4 multi-core backends with replicas=2: grid, "
             "worker pool, authz, ~100 handshakes, heavy key set-up"),
        config={
            "harness": "run_fleet", "setup": "sgfs-aes", "rtt": 0.0,
            "clients": 24, "workload": "IOzoneWriteRead",
            "file_size": 1 * MIB, "block_size": 32 * KIB,
            "cache_bytes": 128 * KIB, "servers": 4, "replicas": 2,
            "server_cores": 4, "server_workers": 8, "session_tickets": True,
            "session_seed": "bench-{seed}",
        },
        spans=("crypto.keygen", "gsi.issue", "core.testbed", "core.mount",
               "crypto.rsa", "grid.forward", "tls.handshake", "sim.cpu"),
    ),
    Workload(
        name="wan-postmark",
        why=("one sgfs-aes client at 80 ms RTT runs seeded PostMark through "
             "the caching proxy (streams=4, 256 KiB cache): per-operation "
             "cost in the event kernel, XDR, RPC and metadata"),
        config={
            "harness": "run_workload", "setup": "sgfs-aes", "rtt": 0.08,
            "workload": "PostMark", "directories": 100, "files": 500,
            "transactions": 1000, "min_size": 512, "max_size": 16384,
            "postmark_seed": "bench-{seed}", "disk_cache": True,
            "streams": 4, "cache_capacity": 256 * KIB,
        },
        spans=("xdr.codec", "vfs", "net.deliver", "sim.run", "rpc.call",
               "proxy.upstream"),
    ),
    Workload(
        name="lan-iozone",
        why=("the paper's configuration: one sgfs-aes LAN client writes and "
             "twice re-reads 32 MiB (twice its cache), one stream, one "
             "server core, spawn-per-call: bulk sealing and framing"),
        config={
            "harness": "run_workload", "setup": "sgfs-aes", "rtt": 0.0,
            "workload": "IOzoneWriteRead", "file_size": 32 * MIB,
            "block_size": 32 * KIB, "cache_bytes": 16 * MIB,
            "disk_cache": False, "streams": 1, "server_cores": 1,
            "server_workers": None,
        },
        spans=("crypto.cipher", "tls.record", "rpc.record", "net.deliver"),
    ),
)}


def resolved_config(workload: Workload, seed: int) -> Dict[str, object]:
    """The configuration with the seed substituted."""
    return {k: v.format(seed=seed) if isinstance(v, str) else v
            for k, v in workload.config.items()}


@dataclass
class Outcome:
    """What one harness call produced, before the metrics are derived."""

    probe: OpProbe
    registry: Dict[str, object]
    #: virtual seconds from workload start to the end of write-back
    virtual_seconds: float
    #: host seconds: harness call to first operation, first op to return
    setup_host_s: float
    run_host_s: float
    #: failed end-of-run checks, empty when the run is correct
    violations: List[str]


def execute(workload: Workload, seed: int) -> Outcome:
    """Run ``workload`` once through the harness and check its result."""
    from repro.harness import run_fleet, run_workload
    from repro.nfs.client import NfsClientError
    from repro.workloads.iozone import IOzoneWriteRead
    from repro.workloads.postmark import PostMark, PostMarkConfig

    cfg = resolved_config(workload, seed)
    probe = OpProbe(error_type=NfsClientError)
    violations: List[str] = []
    t_call = time.perf_counter()
    if cfg["harness"] == "run_fleet":
        result = run_fleet(
            cfg["setup"],
            lambda: probe.workload(IOzoneWriteRead(
                file_size=cfg["file_size"], block_size=cfg["block_size"])),
            clients=cfg["clients"], rtt=cfg["rtt"],
            setup_kwargs={"cache_bytes": cfg["cache_bytes"]},
            server_workers=cfg["server_workers"],
            session_seed=cfg["session_seed"],
            server_cores=cfg["server_cores"],
            session_tickets=cfg["session_tickets"],
            servers=cfg["servers"], replicas=cfg["replicas"],
        )
        t_end = time.perf_counter()
        virtual = result.makespan
        expected = 3 * cfg["file_size"]
        for client in result.per_client:
            if client.bytes_moved != expected:
                violations.append(
                    f"{client.name} moved {client.bytes_moved} bytes, "
                    f"expected {expected}")
    else:
        if cfg["workload"] == "PostMark":
            def factory():
                return probe.workload(PostMark(PostMarkConfig(
                    directories=cfg["directories"], files=cfg["files"],
                    transactions=cfg["transactions"],
                    min_size=cfg["min_size"], max_size=cfg["max_size"],
                    seed=cfg["postmark_seed"])))
            setup_kwargs = {"disk_cache": True, "streams": cfg["streams"],
                            "cache_capacity": cfg["cache_capacity"]}
        else:
            def factory():
                return probe.workload(IOzoneWriteRead(
                    file_size=cfg["file_size"], block_size=cfg["block_size"]))
            setup_kwargs = {"cache_bytes": cfg["cache_bytes"]}
        result = run_workload(cfg["setup"], factory, rtt=cfg["rtt"],
                              setup_kwargs=setup_kwargs)
        t_end = time.perf_counter()
        virtual = result.total + result.writeback_seconds
        if cfg["workload"] == "PostMark":
            from repro.vfs.fs import ROOT_CRED

            fs = probe.mounts[0].tb.fs
            left = [n for n, _ in fs.readdir(fs.root.fileid, ROOT_CRED)
                    if n == "pm"]
            if left:
                violations.append("PostMark's /pm tree is still in the export")
        else:
            expected = 3 * cfg["file_size"]
            moved = probe.workloads[0].bytes_moved
            if moved != expected:
                violations.append(f"moved {moved} bytes, expected {expected}")

    violations.extend(_common_checks(probe, result.stats))
    return Outcome(
        probe=probe, registry=result.stats, virtual_seconds=virtual,
        setup_host_s=probe.first_run_host - t_call,
        run_host_s=t_end - probe.first_run_host, violations=violations,
    )


def _common_checks(probe: OpProbe, registry: Dict[str, object]) -> List[str]:
    out = []
    for w in probe.workloads:
        if "total" not in getattr(w, "results", {}):
            out.append(f"{type(w.inner).__name__} did not complete")
    if probe.corrupt:
        out.append(f"{probe.corrupt} short or corrupt reads")
    for mount in probe.mounts:
        cp = mount.client_proxy
        if cp is None:
            continue
        if cp.dirty_bytes != 0:
            out.append(f"{mount.label}: {cp.dirty_bytes} dirty bytes after finish")
        if cp.stats.get("writeback_errors", 0) != 0:
            out.append(f"{mount.label}: write-back errors")
    grid = registry.get("grid", {})
    for key in ("hole_spans", "degraded_writes"):
        if grid.get(key, 0) != 0:
            out.append(f"grid.{key} = {grid[key]}")
    denied = registry.get("proxy.server", {}).get("denied", 0)
    if denied:
        out.append(f"proxy.server.denied = {denied}")
    return out


# -- metrics ----------------------------------------------------------------


def end_to_end(out: Outcome) -> Dict[str, float]:
    """The user-visible figures of one run (``peak_rss_mb`` is added by
    the caller, which owns the process)."""
    probe = out.probe
    lat = probe.latencies
    data = sorted(lat)
    tail_pct, tail = stats.tail_percentile(lat)
    return {
        "setup_s": out.setup_host_s,
        "host_ops_per_s": probe.attempted / out.run_host_s,
        "virt_ops_per_s": probe.attempted / out.virtual_seconds,
        "op_p50_ms": stats.nearest_rank(data, 50.0) * 1e3,
        "op_p99_ms": tail * 1e3,
        "op_tail_pct": tail_pct,
        "op_samples": len(lat),
        "op_fail_ratio": stats.ratio(probe.failed, probe.attempted),
        "op_ok_ratio": 1.0 - stats.ratio(probe.failed, probe.attempted),
    }


def _sum_matching(component: Dict[str, object], name: str, labels: str = "",
                  field: Optional[str] = None) -> float:
    """Sum metric ``name`` over every label set containing ``labels``
    (``field`` picks one entry of a histogram summary)."""
    total = 0.0
    for key, value in component.items():
        base, _, rest = key.partition("{")
        if base == name and labels in rest:
            total += value[field] if field else value
    return total


def _hist_mean(component: Dict[str, object], name: str, labels: str = "") -> float:
    return stats.ratio(_sum_matching(component, name, labels, "sum"),
                       _sum_matching(component, name, labels, "count"))


def registry_layers(out: Outcome) -> Dict[str, float]:
    """Per-layer counts and virtual times read from the registry."""
    reg = out.registry
    ops = out.probe.attempted
    sim = reg.get("sim", {})
    cache = reg.get("nfs.cache", {})
    pc = reg.get("proxy.client", {})
    ps = reg.get("proxy.server", {})
    rpc_c = reg.get("rpc.client", {})
    rpc_s = reg.get("rpc.server", {})
    tls = reg.get("tls", {})
    grid = reg.get("grid", {})
    net = reg.get("net", {})

    def hit_ratio(c):
        return stats.ratio(c.get("hits", 0), c.get("hits", 0) + c.get("misses", 0))

    return {
        "workload.ops": ops,
        "sim.events_per_op": stats.ratio(sim.get("events_dispatched", 0), ops),
        "sim.heap_pushes_per_op": stats.ratio(sim.get("heap_pushes", 0), ops),
        "sim.wakeups_per_op": stats.ratio(sim.get("process_wakeups", 0), ops),
        "sim.host_us_per_event": stats.ratio(out.run_host_s * 1e6,
                                             sim.get("events_dispatched", 0)),
        "nfs.cache.page_hit_ratio": hit_ratio(cache.get("page", {})),
        "nfs.cache.attr_hit_ratio": hit_ratio(cache.get("attr", {})),
        "nfs.rpcs_per_op": stats.ratio(
            rpc_c.get("calls{account=kernel-nfs}", 0), ops),
        "proxy.client.local_reply_ratio": stats.ratio(
            pc.get("local_replies", 0),
            pc.get("local_replies", 0) + pc.get("forwarded", 0)),
        "proxy.client.writeback_blocks": pc.get("writeback_blocks", 0),
        "proxy.client.members_per_envelope": stats.ratio(
            pc.get("compound_members", 0), pc.get("compound_envelopes", 0)),
        "rpc.server.queue_wait_ms": _hist_mean(rpc_s, "queue_wait") * 1e3,
        # the registry splits full/resumed only for ticket sessions
        "tls.full_handshakes": (_sum_matching(tls, "handshakes", "role=client")
                                - _sum_matching(tls, "resumptions", "role=client")),
        "tls.resumptions": _sum_matching(tls, "resumptions", "role=client"),
        "proxy.server.authz_hit_ratio": stats.ratio(
            ps.get("authz_cache_hits", 0),
            ps.get("authz_cache_hits", 0) + ps.get("authz_cache_misses", 0)),
        "grid.striped_ops": grid.get("striped_reads", 0) + grid.get("striped_writes", 0),
        "grid.replica_writes": grid.get("replica_writes", 0),
        "grid.read_failovers": grid.get("read_failovers", 0),
        "net.queue_delay_ms": _sum_matching(net, "queue_delay", field="sum") * 1e3,
        "net.link_busy_s": _sum_matching(net, "link_busy_seconds"),
        "nfs.server.service_ms": _hist_mean(rpc_s, "service_time", "server=nfsd") * 1e3,
        "rpc.retransmissions": (
            _sum_matching(rpc_c, "retransmissions")
            + reg.get("nfs.client", {}).get("retransmissions", 0)),
        "rpc.drc_replays": _sum_matching(reg.get("rpc.drc", {}), "replays"),
    }


def fingerprint(out: Outcome, e2e: Dict[str, float]) -> str:
    """Digest of every virtual figure and registry count of a run: equal
    across repeats, hash seeds and tracing, or the run is not
    deterministic."""
    virtual = {k: e2e[k] for k in ("virt_ops_per_s", "op_p50_ms", "op_p99_ms",
                                   "op_samples", "op_fail_ratio")}
    blob = json.dumps({"virtual": virtual, "virtual_seconds": out.virtual_seconds,
                       "registry": out.registry}, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()
