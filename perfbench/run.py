#!/usr/bin/env python3
"""relclock benchmark.

    python3 perfbench/run.py --workload probabilities --seed 1 --seconds 25 --trace 0

Runs one workload (see ``perfbench/README.md``) in fresh single-process
workers with pinned BLAS/OpenMP threads, checks every result, prints each
metric named in ``BENCHMARK.json`` with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  A record of the run,
with the environment it ran in, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MAX_STRETCH

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("probabilities", "reductions", "cli-batch")
SETUP_RUNS = 5  # setup_s is the median over this many fresh processes
SETUP_LIMIT_S = 60.0  # a worker that sets up for longer than this has hung


# BLAS/OpenMP threads, at most two.  Interleaved five-seed runs with one thread
# were no steadier on a shared two-core machine, and 20% slower.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONHASHSEED"] = "0"
    # glibc adapts its mmap threshold to the frees it sees, which made peak RSS
    # depend on the order of allocations.  Fixing it at the adaptive ceiling
    # keeps RSS steady; a low fixed value (128 KiB) instead made every stack a
    # fresh mmap, 22% slower and twice as noisy.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 2**20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 * 2**20)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_worker(args, mode: str, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--t-start", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=SETUP_LIMIT_S + 2 * MAX_STRETCH * args.seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("warmup_failed"):
        raise RuntimeError("warm-up query failed: " + "".join(result["errors"]))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "relclock" / "__init__.py").is_file():
        print(f"perfbench: no relclock source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = worker_env()

    if args.trace:
        res = run_worker(args, "trace", env)
        values = res["per_layer"]
    else:
        setups = [run_worker(args, "setup", env)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        res = run_worker(args, "measure", env)
        setups.append(res["setup_s"])
        lat = res["latencies_s"]
        values = {
            "setup_s": statistics.median(setups),
            "queries_per_s": res["attempted"] / res["busy_s"],
            "query_p50_ms": 1e3 * statistics.median(lat),
            "query_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[-1],
            "peak_rss_mb": res["peak_rss_mb"],
            "success_rate": 1.0 - res["failed"] / res["attempted"],
        }
        res["setup_runs_s"] = setups
    if args.trace:
        # a counter that never fired belongs to a function this workload does not call
        spans = {name.rsplit(".", 1)[0] for name in values}
        for m in wanted:
            if m["name"] not in values and m["name"].rsplit(".", 1)[0] in spans:
                values[m["name"]] = 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "git_commit": git_commit(), "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
              "metrics": metrics, "worker": {k: v for k, v in res.items() if k != "latencies_s"}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} commit={record['git_commit']} env={json.dumps(res['env'])}")
    for err in res["errors"]:
        print(f"# error: {err.strip().splitlines()[-1]}")
    print(f"# attempted={res['attempted']} failed={res['failed']} "
          f"error_rate={res['failed'] / res['attempted']:.6g} repeated_(clock,T0)_share={res['repeated_share']:.4f}")
    for name, m in metrics.items():
        print(f"{args.workload:<14} {name:<58} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
