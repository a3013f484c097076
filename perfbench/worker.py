"""One run of one workload in a fresh process; ``run.py`` starts it.

Modes:
  setup    set up (imports, inputs, clocks, one warm-up per cost class), report setup_s
  measure  set up, then a closed loop with one caller for ``--seconds``
  trace    set up traced, an untraced loop for half of ``--seconds``, then the
           same queries again with spans on; reports per-layer numbers

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_QUERIES = 100  # so that p90 has at least ten samples beyond it
MAX_STRETCH = 3.0  # a run stops at this multiple of --seconds even below MIN_QUERIES


def environment() -> dict:
    import numpy as np
    import relclock

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": relclock.backend_name(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_one(wl, q, errors: list, tracer=None, qid: int = -1) -> tuple[bool, float]:
    """Run and check one query; returns (passed, latency in s).  Only the call is
    timed (and traced); the check runs after it."""
    if tracer is not None:
        tracer.query_id, tracer.active = qid, True
    t0 = time.perf_counter()
    try:
        out = wl.run(q)
    except Exception:
        latency = time.perf_counter() - t0
        errors.append(f"{q.cls}: {traceback.format_exc(limit=3)}")
        return False, latency
    finally:
        if tracer is not None:
            tracer.active = False
    latency = time.perf_counter() - t0
    try:
        wl.check(q, out)
    except Exception:
        errors.append(f"{q.cls}: check failed: {traceback.format_exc(limit=2)}")
        return False, latency
    return True, latency


def closed_loop(wl, queries: list, seconds: float, errors: list,
                min_queries: int = MIN_QUERIES) -> list[tuple[bool, float]]:
    """One caller: each query starts after the previous one and its check return.
    Runs end on a block boundary, so every run has exactly the block's mix; a
    run that outlasts the generated queries starts over at the first, so the
    inputs held in memory do not grow with the program's speed."""
    done: list[tuple[bool, float]] = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed >= MAX_STRETCH * seconds or (
                len(done) % wl.block_size == 0 and elapsed >= seconds and len(done) >= min_queries):
            return done
        done.append(run_one(wl, queries[len(done) % len(queries)], errors))


def repeated_share(warm: list, queries: list) -> float:
    """Share of timed queries whose (clock, T0) pair appeared earlier in the run."""
    seen = {q.key for q in warm if q.key is not None}
    repeats = 0
    for q in queries:
        repeats += q.key in seen
        if q.key is not None:
            seen.add(q.key)
    return repeats / max(len(queries), 1)


def kernel_cases() -> dict[str, float]:
    """The cases of ``benchmarks/bench_kernels.py``, timed by that script."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import bench_kernels as bk

    return {
        "accel.rk4_dephasing_step.case_qubit_20k_s": bk.bench_rk4(2, 20_000)["numpy"],
        "accel.rk4_dephasing_step.case_dim8_5k_s": bk.bench_rk4(8, 5_000)["numpy"],
        "accel.dephasing_product.case_n12_200k_s": bk.bench_dephasing(12, 200_000)["numpy"],
        "accel.sandwich_traces.case_128x49_s": bk.bench_sandwich(128, 49)["numpy"],
    }


def per_layer(summary: dict, extra: dict) -> dict[str, float]:
    """Flatten span summaries to ``<layer>.<function>.<quantity>`` names."""
    flat = {f"{span}.{qty}": value for span, quantities in summary.items()
            for qty, value in quantities.items()}
    detect = summary["events.detect_event"]
    flat["events.detect_event.occurred_ratio"] = detect.get("occurred", 0) / max(detect["calls"], 1)
    flat.update(extra)
    return flat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t-start", type=float, required=True, help="time.monotonic() when the process was started")
    args = ap.parse_args(argv)

    import relclock

    src = (ROOT / "src").resolve()
    if src not in Path(relclock.__file__).resolve().parents:
        print(f"relclock imported from {relclock.__file__}, not from {src}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.mode == "trace":
        kernels = kernel_cases()  # before the spans are installed, so the kernels run unwrapped
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    wl = WORKLOADS[args.workload](args.seed, OUT / f"scratch-{os.getpid()}")
    errors: list[str] = []
    try:
        wl.setup()
        warm = wl.warmups()
        queries = list(islice(wl.stream(), wl.pregenerate_blocks * wl.block_size))
        warm_ok = all([run_one(wl, q, errors, tracer)[0] for q in warm])
        setup_s = time.monotonic() - args.t_start
        result = {"setup_s": setup_s, "warmup_failed": not warm_ok, "errors": errors[:5]}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        seconds = args.seconds / 2 if tracer else args.seconds
        if tracer:
            tracer.active = False
        done = closed_loop(wl, queries, seconds, errors, 1 if tracer else MIN_QUERIES)
        timed = [queries[i % len(queries)] for i in range(len(done))]
        latencies = [lat for _, lat in done]
        failed = sum(not ok for ok, _ in done)
        if tracer:
            wl.artifact_bytes = 0
            traced = [run_one(wl, q, errors, tracer, i) for i, q in enumerate(timed)]
            failed += sum(not ok for ok, _ in traced)
            extra = {"trace.overhead_s": sum(lat for _, lat in traced) - sum(latencies),
                     "cli.artifact_bytes": getattr(wl, "artifact_bytes", 0)}
            extra.update(kernels)
            result["per_layer"] = per_layer(tracer.summary(), extra)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        wl.close()

    by_class: dict[str, list[float]] = {}
    for q, lat in zip(timed, latencies):
        by_class.setdefault(q.cls, []).append(lat)
    result.update(
        attempted=len(done) * (2 if tracer else 1),  # a traced run runs each query twice
        failed=failed,
        latencies_s=latencies,
        busy_s=sum(latencies),
        repeated_share=repeated_share(warm, timed),
        classes={c: {"count": len(v), "median_ms": 1e3 * sorted(v)[len(v) // 2]} for c, v in by_class.items()},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
        errors=errors[:5],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
