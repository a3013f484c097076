"""Batched numpy kernels shared by the dephasing scans and the conditioning
quadratures."""

from __future__ import annotations

import numpy as np


def dephasing_product(couplings: np.ndarray, polarizations: np.ndarray, t: np.ndarray) -> np.ndarray:
    """z(t) = prod_k [cos(2 g_k t) + i c_k sin(2 g_k t)] over a time grid."""
    phase = 2.0 * np.multiply.outer(couplings, t)
    factors = np.cos(phase) + 1j * polarizations[:, None] * np.sin(phase)
    return factors.prod(axis=0)


def sandwich_traces(pq_t: np.ndarray, pt_t: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tr(PQ(t) PT(t) rho PT(t)) and Tr(PT(t) rho) across a stacked time axis."""
    inner = pt_t @ rho @ pt_t
    num = np.einsum("tij,tji->t", pq_t, inner).real
    den = np.einsum("tij,ji->t", pt_t, rho).real
    return num, den


def backend_name() -> str:
    return "numpy"
