#!/usr/bin/env python3
"""Scaling ladder, reported but not gated.

    python3 perfbench/ladder.py

Runs ``conditional_probability``, ``rho_mod`` and ``detect_event`` on the
README's free-particle clock (x) plus-state qubit at n = 64 ... 1024, each case
in a fresh process with the benchmark's pinned threads, and records wall time,
peak RSS and the result.  Each case's dense-stack memory is estimated before
anything is allocated; a case above ``LIMIT_GB`` is written as
``"skipped": "est N GB"`` instead of being run.  Output: one line per case and
``perfbench/out/ladder.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

from run import OUT, ROOT, git_commit, worker_env

GRID = (64, 128, 256, 512, 1024)
CASES = ("conditional_probability", "rho_mod", "detect_event")
# full-space nt x (n d)^2 complex stacks alive at once at each call's peak,
# counted from the code (window stack, member stack, two sandwich temporaries; rho_event adds two)
STACKS_ALIVE = {"conditional_probability": 4, "rho_mod": 4, "detect_event": 6}
LIMIT_GB = 3.0  # a case whose stacks are estimated above this is skipped, not run
README_CLOCK = dict(mass=30.0, delta_c=0.35, tau=6.0)
T0 = 2.0


def readme_inputs(n: int):
    import numpy as np
    import relclock as rc

    # the README's sigma0 = 0.4 is below two grid steps at n = 64; 0.45 leaves nt unchanged
    clock = rc.build_free_particle_clock(n, sigma0=0.4 if n >= 128 else 0.45, **README_CLOCK)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    return rc, clock, plus


def estimate_bytes(case: str, n: int) -> int:
    _, clock, _ = readme_inputs(n)  # builders allocate no dense n x n matrix
    return STACKS_ALIVE[case] * clock.default_t_grid().size * (2 * n) ** 2 * 16


def run_case(case: str, n: int) -> dict:
    rc, clock, plus = readme_inputs(n)
    h = rc.Observable.from_matrix(rc.SIGMA_Z)
    rho = clock.rho0.tensor(rc.DensityOperator.from_matrix(plus, (2,)))
    t0 = time.perf_counter()
    if case == "conditional_probability":
        result = {"p": rc.conditional_probability(rho, plus, clock, T0, h_system=h)}
    elif case == "rho_mod":
        out = rc.rho_mod(rho, clock, T0, h_system=h)
        sys_m = rc.partial_trace_matrix(out.matrix, out.space.dims, [1])
        result = {"system_re": sys_m.real.tolist(), "system_im": sys_m.imag.tolist()}
    else:
        from relclock import fixtures

        rec = rc.detect_event(rho, fixtures.pointer_family_z(), clock, T0, n_particles=10, alpha=0.3)
        result = {"distinguishability": rec.distinguishability, "event_occurred": rec.event_occurred}
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "nt": int(clock.default_t_grid().size), "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    ap.add_argument("--n", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.case:
        print(json.dumps(run_case(args.case, args.n)))
        return 0

    env = worker_env()
    rows = []
    for n in GRID:
        for case in CASES:
            est = estimate_bytes(case, n) / 1e9
            row = {"case": case, "n_clock": n, "est_gb": est}
            if est > LIMIT_GB:
                row["skipped"] = f"est {est:.1f} GB"
            else:
                proc = subprocess.run([sys.executable, __file__, "--case", case, "--n", str(n)], env=env,
                                      cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
                if proc.returncode != 0:
                    row["error"] = f"exit code {proc.returncode}"
                else:
                    row.update(json.loads(proc.stdout.strip().splitlines()[-1]))
            rows.append(row)
            shown = row.get("skipped") or row.get("error") or \
                f"{row['seconds']:8.3f} s {row['peak_rss_mb']:8.0f} MB  {json.dumps(row['result'])}"
            print(f"{case:<24} n={n:<5} est {est:6.2f} GB  {shown}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "ladder.json").write_text(json.dumps({"git_commit": git_commit(), "threads": env["OMP_NUM_THREADS"],
                                                 "limit_gb": LIMIT_GB, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
