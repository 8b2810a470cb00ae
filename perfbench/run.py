"""slval benchmark: end-to-end metrics, or per-module metrics from a traced pass.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; slval is imported from its src/.  Every
measurement happens in a fresh worker interpreter (worker.py).  The last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of an untraced run;
with --trace 1 they are the per-module ones of a fixed, smaller pass.  The
lines before it carry run metadata and the details behind the metrics.
Every reported time but setup_s is in reference seconds: each op's
measured time scaled by the worker's factor for it (see worker.py).
Exit status is 0 when every op was correct, 1 when one was not or a
worker failed (then without a result line), and 2 when the checkout
holds no slval sources.  Workloads, metrics and the
reasons for both are described in README.md.
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

from worker import reference_s

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: a seed kept out of tuning; later gain claims are re-checked on it
HELD_OUT_SEED = 104729
#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 15
#: a fresh interpreter that imports slval.cli and prints the wall clock
PROBE = "import sys, time; sys.path.insert(0, 'src'); import slval.cli; print(repr(time.time()))"
#: op_tail_ms is the slowest op but this many
TAIL_BEYOND = 10
#: every worker is stopped once the whole run has taken this long
RUN_LIMIT_S = 170
_START = time.monotonic()


class WorkerFailed(Exception):
    pass


def worker(*args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    # a fixed hash seed makes set and dict order, and so the work, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=_time_left())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _time_left() -> float:
    return max(1.0, RUN_LIMIT_S - (time.monotonic() - _START))


def setup_seconds() -> float:
    """Median time from starting a fresh interpreter until slval.cli is imported.

    Measured time, not scaled: interpreter start-up is process creation
    and file reads, which the reference loop does not follow.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, capture_output=True,
                              text=True, timeout=_time_left())
        if proc.returncode != 0:
            raise WorkerFailed(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        # the probe prints the wall clock at which slval.cli was ready
        times.append(float(proc.stdout) - start)
    return statistics.median(times)


def revision() -> dict:
    src = os.path.join(ROOT, "src", "slval")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    git = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            git = out.stdout.strip() or git
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_revision": git, "source_sha256": h.hexdigest()[:16]}


def end_to_end(name: str, seed: int, seconds: int) -> tuple[dict, dict, list]:
    setup = setup_seconds()
    result = worker("run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds))
    factor = result["host_factor"]
    ops = result["ops"]
    latencies = sorted(lat * op_factor for _, lat, _, op_factor in ops)
    # the highest percentile with at least TAIL_BEYOND ops beyond it
    tail_rank = max(0, len(latencies) - TAIL_BEYOND - 1)
    tail = latencies[tail_rank]
    metrics = {
        "ops_per_s": (len(ops) / (result["busy_s"] * factor), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (setup, "s"),
    }
    per_stratum = {}
    for stratum, lat, _, op_factor in ops:
        entry = per_stratum.setdefault(stratum, [0, 0.0])
        entry[0] += 1
        entry[1] += lat * op_factor
    detail = {
        "host_factor": factor,
        "busy_s_measured": result["busy_s"],
        "op_tail_level": (tail_rank + 1) / len(latencies),
        "op_tail_beyond": len(latencies) - tail_rank - 1,
        "ops": len(ops),
        "strata": {s: {"ops": c, "op_s": round(t, 6)} for s, (c, t) in per_stratum.items()},
    }
    return metrics, detail, ops


def traced(name: str, seed: int) -> tuple[dict, dict, list]:
    base = ["pass", "--workload", name, "--seed", str(seed)]
    plain = worker(*base)
    first = worker(*base, "--trace")
    second = worker(*base, "--trace")
    factor = first["host_factor"]
    plain_s = plain["busy_s"] * plain["host_factor"]
    traced_s = first["busy_s"] * factor
    mismatched = sorted(k for k in set(first["counts"]) | set(second["counts"])
                        if first["counts"].get(k) != second["counts"].get(k))
    metrics = {key: (value * factor if key.endswith(".self_s") else value, unit)
               for key, (value, unit) in first["layers"].items()}
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["trace.unattributed_frac"] = ((first["busy_s"] - first["traced_s"]) / first["busy_s"],
                                          "ratio")
    metrics["trace.count_mismatches"] = (len(mismatched), "count")
    detail = {"ops": len(first["ops"]), "untraced_s": plain_s, "traced_s": traced_s,
              "host_factor": factor, "mismatched_counts": mismatched[:20]}
    return metrics, detail, plain["ops"] + first["ops"] + second["ops"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "hull_wide", "surd_union"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "slval", "cli.py")):
        print(f"no slval sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        # the reference loop, as calibration: makes the host's speed visible
        "calibration_s": statistics.mean(reference_s() for _ in range(25)),
        **revision(),
    }
    print(json.dumps({"meta": meta}), flush=True)
    try:
        if args.trace:
            metrics, detail, ops = traced(args.workload, args.seed)
        else:
            metrics, detail, ops = end_to_end(args.workload, args.seed, args.seconds)
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failed = sum(1 for _, _, ok, _ in ops if not ok)
    correct = failed == 0 and not (args.trace and metrics["trace.count_mismatches"][0])
    print(json.dumps({"detail": detail}), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
