"""What the benchmark reports: the contents of ``BENCHMARK.json``.

``python3 perfbench/run.py --write-spec`` writes this to the repository
root; the self-tests check that the committed file matches.
"""

from __future__ import annotations

import json
from typing import Dict, List

from workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

#: (name, unit, better, bound).  Host figures use wall-clock units;
#: virtual figures come from the simulation and use ``virt_*`` units.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("host_ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("virt_ops_per_s", "1/virt_s", "higher", 0.1),
    ("op_p50_ms", "virt_ms", "lower", 0.05),
    ("op_p99_ms", "virt_ms", "lower", 0.05),
    ("op_ok_ratio", "ratio", "higher", 0.001),
]

#: (name, unit, better)
PER_LAYER = [
    # host self time and work counts from the traced run
    ("crypto.keygen_calls", "count", "lower"),
    ("crypto.keygen_host_s", "s", "lower"),
    ("gsi.issue_host_s", "s", "lower"),
    ("core.testbed_host_s", "s", "lower"),
    ("core.mount_host_s", "s", "lower"),
    ("crypto.rsa_ops", "count", "lower"),
    ("crypto.rsa_host_s", "s", "lower"),
    ("crypto.cipher_bytes", "bytes", "lower"),
    ("crypto.cipher_host_s", "s", "lower"),
    ("tls.record_host_s", "s", "lower"),
    ("rpc.record_host_s", "s", "lower"),
    ("xdr.codec_calls", "count", "lower"),
    ("xdr.codec_host_s", "s", "lower"),
    ("vfs.ops", "count", "lower"),
    ("vfs.host_s", "s", "lower"),
    ("net.deliver_calls", "count", "lower"),
    ("net.host_s", "s", "lower"),
    ("grid.forward_calls", "count", "lower"),
    ("grid.forward_host_s", "s", "lower"),
    ("sim.self_host_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
    # counts and virtual times from the registry and the spans
    ("workload.ops", "count", "higher"),
    ("sim.events_per_op", "1/op", "lower"),
    ("sim.heap_pushes_per_op", "1/op", "lower"),
    ("sim.wakeups_per_op", "1/op", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("rpc.call_p50_ms", "virt_ms", "lower"),
    ("rpc.call_p99_ms", "virt_ms", "lower"),
    ("proxy.upstream_p50_ms", "virt_ms", "lower"),
    ("proxy.upstream_p99_ms", "virt_ms", "lower"),
    ("nfs.cache.page_hit_ratio", "ratio", "higher"),
    ("nfs.cache.attr_hit_ratio", "ratio", "higher"),
    ("nfs.rpcs_per_op", "1/op", "lower"),
    ("proxy.client.local_reply_ratio", "ratio", "higher"),
    ("proxy.client.writeback_blocks", "count", "lower"),
    ("proxy.client.members_per_envelope", "ratio", "higher"),
    ("sim.cpu_wait_ms", "virt_ms", "lower"),
    ("sim.cpu_wait_share", "ratio", "lower"),
    ("rpc.server.queue_wait_ms", "virt_ms", "lower"),
    ("tls.full_handshakes", "count", "lower"),
    ("tls.resumptions", "count", "higher"),
    ("tls.handshake_p50_ms", "virt_ms", "lower"),
    ("proxy.server.authz_hit_ratio", "ratio", "higher"),
    ("grid.striped_ops", "count", "higher"),
    ("grid.replica_writes", "count", "lower"),
    ("grid.read_failovers", "count", "lower"),
    ("net.queue_delay_ms", "virt_ms", "lower"),
    ("net.link_busy_s", "virt_s", "lower"),
    ("nfs.server.service_ms", "virt_ms", "lower"),
    ("rpc.retransmissions", "count", "lower"),
    ("rpc.drc_replays", "count", "lower"),
]


def benchmark_json() -> Dict[str, object]:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def units() -> Dict[str, str]:
    out = {n: u for n, u, _b, _bound in END_TO_END}
    out.update({n: u for n, u, _b in PER_LAYER})
    return out


def names(trace: bool) -> List[str]:
    return [m[0] for m in (PER_LAYER if trace else END_TO_END)]
