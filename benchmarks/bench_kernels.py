#!/usr/bin/env python3
"""Time the batched numpy kernels of ``relclock._accel`` and a fixed-step
RK4 master-equation step.

``master_evolve`` solves the master equation exactly and no longer steps it;
the RK4 case keeps a local copy of the former step so that its timings stay
comparable across versions.  Each ``bench_*`` returns ``{"numpy": seconds}``
(best of k).  Run with ``python benchmarks/bench_kernels.py``.
"""

import time

import numpy as np

from relclock import _accel


def _time(fn, *args, repeat=5, inner=1):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _rk4_step(h: np.ndarray, rho: np.ndarray, dt: float, rate: float) -> np.ndarray:
    """One RK4 step of drho/dT = -i[H,rho] - rate*[H,[H,rho]] (rate constant)."""

    def rhs(r):
        c = h @ r - r @ h
        return -1j * c - rate * (h @ c - c @ h)

    k1 = rhs(rho)
    k2 = rhs(rho + 0.5 * dt * k1)
    k3 = rhs(rho + 0.5 * dt * k2)
    k4 = rhs(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def bench_rk4(dim: int, steps: int) -> dict:
    rng = np.random.default_rng(0)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = np.ascontiguousarray(0.5 * (g + g.conj().T))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho = np.ascontiguousarray(rho / rho.trace())

    def loop():
        r = rho
        for _ in range(steps):
            r = _rk4_step(h, r, 1e-3, 1e-4)
        return r

    return {"numpy": _time(loop, repeat=3)}


def bench_dephasing(n_spins: int, n_times: int) -> dict:
    g = np.sqrt(np.arange(2, 2 + n_spins, dtype=float))
    c = np.zeros(n_spins)
    t = np.linspace(0.0, 100.0, n_times)
    return {"numpy": _time(_accel.dephasing_product, g, c, t)}


def bench_sandwich(dim: int, n_times: int) -> dict:
    rng = np.random.default_rng(1)
    pq = rng.normal(size=(n_times, dim, dim)) + 1j * rng.normal(size=(n_times, dim, dim))
    pt = rng.normal(size=(n_times, dim, dim)) + 1j * rng.normal(size=(n_times, dim, dim))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho = np.ascontiguousarray(rho / rho.trace())
    pq = np.ascontiguousarray(pq)
    pt = np.ascontiguousarray(pt)
    return {"numpy": _time(_accel.sandwich_traces, pq, pt, rho)}


def main() -> None:
    cases = [
        ("rk4 master step, qubit x 20000 steps", bench_rk4(2, 20000)),
        ("rk4 master step, dim 8 x 5000 steps", bench_rk4(8, 5000)),
        ("dephasing product, N=12 x 200k times", bench_dephasing(12, 200_000)),
        ("sandwich traces, dim 128 x 49 times", bench_sandwich(128, 49)),
    ]
    for name, res in cases:
        print(f"{name:45s} {res['numpy'] * 1e3:9.2f}ms")


if __name__ == "__main__":
    main()
