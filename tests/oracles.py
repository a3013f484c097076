"""Independent brute-force implementations used as test oracles.

Everything here deliberately avoids the library's computational paths:
evolution goes through scipy's expm, traces through explicit element sums,
quadrature through an explicit trapezoid loop.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm


def trapezoid(values, t_grid) -> float:
    total = 0.0
    for k in range(len(t_grid) - 1):
        total += 0.5 * (values[k] + values[k + 1]) * (t_grid[k + 1] - t_grid[k])
    return total


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    total = 0.0 + 0.0j
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            total += a[i, j] * b[j, i]
    return total


def brute_partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    dims = tuple(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[k] for k in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    full = mat.reshape(dims + dims)
    kept_ranges = [range(dims[k]) for k in keep]
    traced_ranges = [range(dims[k]) for k in traced]
    for row_kept in itertools.product(*kept_ranges):
        for col_kept in itertools.product(*kept_ranges):
            total = 0.0 + 0.0j
            for tr in itertools.product(*traced_ranges):
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, k in enumerate(keep):
                    row[k] = row_kept[pos]
                    col[k] = col_kept[pos]
                for pos, k in enumerate(traced):
                    row[k] = tr[pos]
                    col[k] = tr[pos]
                total += full[tuple(row) + tuple(col)]
            i = int(np.ravel_multi_index(row_kept, [dims[k] for k in keep])) if keep else 0
            j = int(np.ravel_multi_index(col_kept, [dims[k] for k in keep])) if keep else 0
            out[i, j] = total
    return out


def heisenberg(op: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    u = expm(-1j * h * t)
    return u.conj().T @ op @ u


def brute_conditional_probability(
    rho: np.ndarray,
    q_sys: np.ndarray,
    window: np.ndarray,
    h_clock: np.ndarray,
    h_sys: np.ndarray,
    t_grid,
) -> float:
    """Literal evaluation of the clock-conditioned probability on the full
    product space, one expm per grid time."""
    n_cl = h_clock.shape[0]
    d_sys = h_sys.shape[0]
    h_full = np.kron(h_clock, np.eye(d_sys)) + np.kron(np.eye(n_cl), h_sys)
    pq_full = np.kron(np.eye(n_cl), q_sys)
    pt_full = np.kron(window, np.eye(d_sys))
    nums, dens = [], []
    for t in t_grid:
        pq_t = heisenberg(pq_full, h_full, t)
        pt_t = heisenberg(pt_full, h_full, t)
        sandwich = pt_t @ rho @ pt_t
        nums.append(trace_product(pq_t, sandwich).real)
        dens.append(trace_product(pt_t, rho).real)
    return trapezoid(nums, t_grid) / trapezoid(dens, t_grid)


def brute_reduce_state(
    rho: np.ndarray,
    events,
    window_of,
    h_clock: np.ndarray,
    h_sys: np.ndarray,
    t_grid,
) -> np.ndarray:
    """events: list of (q_sys or None, t0 or None); window_of(t0) gives the
    clock-window projector."""
    n_cl = h_clock.shape[0]
    d_sys = h_sys.shape[0]
    h_full = np.kron(h_clock, np.eye(d_sys)) + np.kron(np.eye(n_cl), h_sys)
    acc = np.zeros_like(rho)
    values = []
    for t in t_grid:
        m = np.eye(rho.shape[0], dtype=complex)
        for q_sys, t0 in events:
            factor = np.eye(rho.shape[0], dtype=complex)
            if t0 is not None:
                factor = factor @ heisenberg(np.kron(window_of(t0), np.eye(d_sys)), h_full, t)
            if q_sys is not None:
                factor = factor @ heisenberg(np.kron(np.eye(n_cl), q_sys), h_full, t)
            m = m @ factor
        values.append(m @ rho @ m.conj().T)
    out = np.zeros_like(rho)
    for k in range(len(t_grid) - 1):
        out = out + 0.5 * (values[k] + values[k + 1]) * (t_grid[k + 1] - t_grid[k])
    return out / out.trace()


def brute_rho_event(
    rho: np.ndarray,
    projectors,
    window: np.ndarray,
    h_clock: np.ndarray,
    h_sys: np.ndarray,
    t_grid,
) -> np.ndarray:
    """Literal full-space pinched window sandwich, normalized by the window
    probability: sum over t and members P of (I x P(t)) (W(t) x I) rho (W(t) x I) (I x P(t))."""
    n_cl = h_clock.shape[0]
    d_sys = h_sys.shape[0]
    h_full = np.kron(h_clock, np.eye(d_sys)) + np.kron(np.eye(n_cl), h_sys)
    pt_full = np.kron(window, np.eye(d_sys))
    values, dens = [], []
    for t in t_grid:
        pt_t = heisenberg(pt_full, h_full, t)
        inner = pt_t @ rho @ pt_t
        total = np.zeros_like(rho)
        for p in projectors:
            pa_t = heisenberg(np.kron(np.eye(n_cl), p), h_full, t)
            total = total + pa_t @ inner @ pa_t
        values.append(total)
        dens.append(trace_product(pt_t, rho).real)
    out = np.zeros_like(rho)
    for k in range(len(t_grid) - 1):
        out = out + 0.5 * (values[k] + values[k + 1]) * (t_grid[k + 1] - t_grid[k])
    return out / trapezoid(dens, t_grid)


def boosted_packet_vector(rng, psi0: np.ndarray, x: np.ndarray, d_sys: int) -> np.ndarray:
    """sum_k a_k (clock packet boosted by kappa_k) x |k>: a clock-system
    entangled pure state, as a unit vector on the full space."""
    amps = rng.normal(size=d_sys) + 1j * rng.normal(size=d_sys)
    kicks = rng.uniform(-2.0, 2.0, d_sys)
    psi = (psi0[:, None] * np.exp(1j * np.outer(x, kicks)) * amps[None, :]).ravel()
    return psi / np.linalg.norm(psi)


def random_unitary(rng, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def brute_moments(t_grid, density):
    w = []
    n = len(t_grid)
    for k in range(n):
        left = 0.5 * (t_grid[k] - t_grid[k - 1]) if k > 0 else 0.0
        right = 0.5 * (t_grid[k + 1] - t_grid[k]) if k < n - 1 else 0.0
        w.append(left + right)
    norm = sum(w[k] * density[k] for k in range(n))
    mean = sum(w[k] * density[k] * t_grid[k] for k in range(n)) / norm
    var = sum(w[k] * density[k] * (t_grid[k] - mean) ** 2 for k in range(n)) / norm
    return mean, var


def brute_max_projector_gap(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Exhaustive maximization of |Tr(P (rho1 - rho2))| over every projector
    built from eigenvector subsets of the difference."""
    diff = rho1 - rho2
    lam, _ = np.linalg.eigh(diff)
    best = 0.0
    n = len(lam)
    for mask in range(1 << n):
        s = sum(lam[i] for i in range(n) if mask & (1 << i))
        best = max(best, abs(s))
    return best


def random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)
