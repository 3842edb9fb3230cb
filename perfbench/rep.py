"""One measured repetition of one workload, in a fresh process.

Usage: ``python3 perfbench/rep.py --workload NAME --seed N --trace 0|1``
from the repository root.  The last line of standard output is a JSON
object with the repetition's metrics, its determinism fingerprint and
the result of the end-of-run checks.  :mod:`run` starts one of these per
repetition, so set-up and peak memory are paid as a user pays them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback

import stats
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def span_layers(rec) -> dict:
    """Per-layer figures of a traced repetition."""
    self_s = rec.self_times()
    virt = rec.virtual

    def pct_ms(name, pct):
        data = sorted(virt.get(name, ()))
        return stats.nearest_rank(data, pct) * 1e3 if data else 0.0

    wait, busy = sum(rec.cpu_wait), sum(rec.cpu_busy)
    return {
        "crypto.keygen_calls": rec.calls["crypto.keygen"],
        "crypto.keygen_host_s": self_s.get("crypto.keygen", 0.0),
        "gsi.issue_host_s": self_s.get("gsi.issue", 0.0),
        "core.testbed_host_s": self_s.get("core.testbed", 0.0),
        "core.mount_host_s": self_s.get("core.mount", 0.0),
        "crypto.rsa_ops": rec.calls["crypto.rsa"],
        "crypto.rsa_host_s": self_s.get("crypto.rsa", 0.0),
        "crypto.cipher_bytes": rec.amount["crypto.cipher"],
        "crypto.cipher_host_s": self_s.get("crypto.cipher", 0.0),
        "tls.record_host_s": self_s.get("tls.record", 0.0),
        "rpc.record_host_s": self_s.get("rpc.record", 0.0),
        "xdr.codec_calls": rec.calls["xdr.codec"],
        "xdr.codec_host_s": self_s.get("xdr.codec", 0.0),
        "vfs.ops": rec.calls["vfs"],
        "vfs.host_s": self_s.get("vfs", 0.0),
        "net.deliver_calls": rec.calls["net.deliver"],
        "net.host_s": self_s.get("net.deliver", 0.0),
        "grid.forward_calls": rec.calls["grid.forward"],
        "grid.forward_host_s": self_s.get("grid.forward", 0.0),
        "sim.self_host_s": self_s.get("sim.run", 0.0),
        "rpc.call_p50_ms": pct_ms("rpc.call", 50.0),
        "rpc.call_p99_ms": pct_ms("rpc.call", 99.0),
        "proxy.upstream_p50_ms": pct_ms("proxy.upstream", 50.0),
        "proxy.upstream_p99_ms": pct_ms("proxy.upstream", 99.0),
        "tls.handshake_p50_ms": pct_ms("tls.handshake", 50.0),
        "sim.cpu_wait_ms": wait * 1e3,
        "sim.cpu_wait_share": stats.ratio(wait, wait + busy),
        "trace.spans": len(rec),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"rep: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = wl.WORKLOADS[args.workload]
    rec = None
    if args.trace:
        import spans

        rec = spans.SpanRecorder()
        spans.install(rec)
    try:
        out = wl.execute(workload, args.seed)
    except Exception:  # reported to the caller, which fails the run
        print(json.dumps({"ok": False, "violations": [traceback.format_exc()]}))
        return 1
    e2e = wl.end_to_end(out)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = wl.registry_layers(out)
    fired = {}
    if rec is not None:
        layers.update(span_layers(rec))
        fired = {name: rec.calls.get(name, 0) for name in workload.spans}
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))
    print(json.dumps({
        "ok": not out.violations,
        "violations": out.violations,
        "attempted": out.probe.attempted,
        "failed": out.probe.failed,
        "e2e": e2e,
        "layers": layers,
        "fired": fired,
        "fingerprint": wl.fingerprint(out, e2e),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
