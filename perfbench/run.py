"""The repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid-fleet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

A run repeats the workload, each repetition in a fresh process
(``rep.py``) with ``PYTHONHASHSEED`` alternating between two values,
until ``--seconds`` have passed and at least three repetitions (two
untraced/traced pairs with ``--trace 1``) are done.  Host figures are
medians over the repetitions; virtual figures and registry counts must
be bit-identical across all of them, traced or not.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer ones,
read from traced repetitions, and ``trace.overhead``, the drop in
``host_ops_per_s`` that tracing causes.  The lines before it list every
metric with its unit and the run's manifest.  The full result, with the
manifest and every repetition, is written to ``.perfbench_out/``.

The exit code is 0 only when every repetition passed the end-of-run
checks and the determinism check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: ``PYTHONHASHSEED`` values the repetitions alternate between
HASH_SEEDS = ("1", "987654")
MIN_REPS = 3
#: untraced/traced pairs in a traced run
MIN_ROUNDS_TRACED = 2
#: no repetition starts after this many seconds, so a run ends in time
START_DEADLINE_S = 120.0
REP_TIMEOUT_S = 170.0

import spec  # noqa: E402
from workloads import WORKLOADS, resolved_config  # noqa: E402


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=True).stdout.strip()


def manifest(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """Where a number came from: code, host, interpreter, configuration."""
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain"))
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "pythonhashseed": list(HASH_SEEDS),
        "seed": seed,
        "workload": workload,
        "config": resolved_config(WORKLOADS[workload], seed),
        "seconds": seconds,
        "trace": trace,
    }


def run_rep(workload: str, seed: int, traced: bool, hash_seed: str,
            timeout: float) -> Dict[str, object]:
    """One repetition in a fresh interpreter; its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "violations": [f"repetition exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "violations": [
            f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    result["hash_seed"] = hash_seed
    result["traced"] = traced
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool) -> List[dict]:
    """Repeat until the time is used; with tracing, untraced and traced
    repetitions alternate in pairs that share a hash seed."""
    started = time.perf_counter()
    reps: List[dict] = []
    kinds = (False, True) if trace else (False,)
    min_rounds = MIN_ROUNDS_TRACED if trace else MIN_REPS
    rounds = 0
    while True:
        elapsed = time.perf_counter() - started
        if rounds >= min_rounds and elapsed >= seconds:
            break
        if rounds and elapsed >= START_DEADLINE_S:
            break
        hash_seed = HASH_SEEDS[rounds % len(HASH_SEEDS)]
        for traced in kinds:
            elapsed = time.perf_counter() - started
            rep = run_rep(workload, seed, traced, hash_seed, REP_TIMEOUT_S - elapsed)
            reps.append(rep)
            if "e2e" not in rep:
                return reps
        rounds += 1
    return reps


def summarize(reps: List[dict], trace: bool, workload: str):
    """``(correct, problems, metrics)`` over all repetitions."""
    problems: List[str] = []
    for i, rep in enumerate(reps):
        for v in rep.get("violations", []):
            problems.append(f"repetition {i}: {v}")
    if any("e2e" not in rep for rep in reps):
        return False, problems, {}
    prints = {rep["fingerprint"] for rep in reps}
    if len(prints) != 1:
        problems.append(
            "virtual metrics or registry counts differ between repetitions: "
            + ", ".join(f"{r['fingerprint'][:12]} (hash seed {r['hash_seed']}, "
                        f"traced {r['traced']})" for r in reps))
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    first = reps[0]

    def med(group, section, key):
        return statistics.median([r[section][key] for r in group])

    metrics: Dict[str, float] = {}
    for key in ("setup_s", "host_ops_per_s", "peak_rss_mb"):
        metrics[key] = med(plain, "e2e", key)
    for key in ("virt_ops_per_s", "op_p50_ms", "op_p99_ms", "op_ok_ratio",
                "op_fail_ratio", "op_tail_pct", "op_samples"):
        metrics[key] = first["e2e"][key]
    if trace:
        for rep in traced:
            for name, count in rep["fired"].items():
                if count == 0:
                    problems.append(f"span {name} never fired on {workload}")
        for name in spec.names(trace=True):
            if name == "trace.overhead":
                continue
            metrics[name] = med(traced, "layers", name)
        metrics["sim.host_us_per_event"] = med(plain, "layers", "sim.host_us_per_event")
        metrics["trace.overhead"] = 1.0 - (
            med(traced, "e2e", "host_ops_per_s") / metrics["host_ops_per_s"])
    return not problems, problems, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            fh.write(spec.render())
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("run: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    info = manifest(args.workload, args.seed, args.seconds, args.trace)
    reps = measure(args.workload, args.seed, args.seconds, trace)
    correct, problems, metrics = summarize(reps, trace, args.workload)
    attempted = sum(r.get("attempted", 0) for r in reps)
    failed = sum(r.get("failed", 0) for r in reps)

    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"manifest": info, "correct": correct, "problems": problems,
                   "metrics": metrics, "repetitions": reps}, fh, indent=1,
                  sort_keys=True)

    for p in problems:
        print(f"FAILED: {p}")
    units = dict(spec.units(), op_fail_ratio="ratio", op_tail_pct="pct",
                 op_samples="count")
    for key in sorted(metrics):
        print(f"{args.workload:14s} {key:36s} {metrics[key]:>16.6g} "
              f"{units.get(key, '')}")
    print(f"{args.workload:14s} {'op_fail_ratio':36s} "
          f"{failed}/{attempted} failed of attempted")
    print(json.dumps({"manifest": info}, sort_keys=True))
    if not metrics:
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return 1
    wanted = spec.names(trace)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
