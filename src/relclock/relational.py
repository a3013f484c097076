"""Clock-conditioned probabilities, physical-time states, and the corrected
master equation.

All dynamics in the unobservable Newtonian time t is unitary.  Conditioning
on a clock reading T produces (i) conditional probabilities as quadratures of
projector sandwiches over t, (ii) a physical-time state as the reading-density
mixture of the unitary trajectory, and (iii) to second order in the reading
density width, a master equation whose double-commutator term dephases energy
off-diagonals at the rate the reading variance grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .clocks import (
    _CHUNK_ENTRIES,
    AccuracyLaw,
    ClockDensity,
    ClockModel,
    UnreachableReadingError,
    _uniform,
    clock_density,
    density_moments,
)
from .states import (
    DensityOperator,
    HilbertSpace,
    Observable,
    ProjectorFamily,
    ValidationError,
    _density_states,
    _freeze,
    _norm_exceeds,
    _StackValidationError,
    hermitize,
)


class ZeroProbabilityError(ValueError):
    """A reduction or history has vanishing probability."""


class MasterIntegrationError(RuntimeError):
    """The master-equation solution left the set of density operators."""


def _energy_basis_stack(
    op: np.ndarray,
    h: Observable,
    times: np.ndarray,
    db: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Schroedinger evolution of ``op`` under ``h`` over a stack of times, with
    energy off-diagonals damped by exp(-omega_mn^2 db):

        v (tilde_mn exp(-i omega_mn t - omega_mn^2 db)) v^dagger

    with tilde the energy-basis matrix of ``op``.  Every map here that commutes
    with ad_H (unitary evolution, the dephasing master equation, a mixture
    over times) is such an elementwise factor on energy-basis entries.  With
    ``weights`` (and no ``db``) the factors are summed over times and one
    matrix is returned instead of the stack:

        sum_t weights_t exp(-i omega_mn t) = (U^T diag(weights) U^*)_mn,

    with U_tm = e^{-i lambda_m t}: nt d exponentials and a (d, nt) x (nt, d)
    product per t-chunk of at most ``_CHUNK_ENTRIES`` entries of U.  Weights of
    shape (K, nt) give K mixtures from the same exponentials, a (K, d, d) stack."""
    v = h.eigenvectors
    lam = h.eigenvalues
    if weights is not None:
        step = max(1, _CHUNK_ENTRIES // lam.size)
        factor = np.zeros(weights.shape[:-1] + (lam.size, lam.size), dtype=complex)
        for start in range(0, times.size, step):
            sl = slice(start, start + step)
            u = np.exp(-1j * np.outer(times[sl], lam))
            factor += (u.T * weights[..., None, sl]) @ u.conj()
        tilde = v.conj().T @ op @ v
    else:
        # tilde before the exponent: a complex exp issued directly after a BLAS
        # call ran several times slower (OpenBLAS 0.3.31 Haswell kernels, x86-64)
        tilde = v.conj().T @ op @ v
        omega = lam[:, None] - lam[None, :]
        exponent = -1j * times[:, None, None] * omega
        if db is not None:
            exponent -= db[:, None, None] * omega**2
        factor = np.exp(exponent, out=exponent)
    return v @ (tilde * factor) @ v.conj().T


# no caller in the package; kept importable because perfbench/tracer.py wraps it by name
def heisenberg_stack(op: np.ndarray, h: Observable | None, t_grid: np.ndarray) -> np.ndarray:
    """Heisenberg-evolved copies e^{iHt} A e^{-iHt} stacked over a time grid."""
    t = np.asarray(t_grid, dtype=float)
    a = np.asarray(op, dtype=complex)
    if h is None:
        return np.broadcast_to(a, (t.size,) + a.shape).copy()
    # e^{iHt} A e^{-iHt} is A evolved backwards in time
    return _energy_basis_stack(a, h, -t)


# no caller in the package; kept importable because perfbench/tracer.py counts its output
def _kron_stack(a_t: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    nt, da, _ = a_t.shape
    db = b_t.shape[1]
    out = np.einsum("tik,tjl->tijkl", a_t, b_t)
    return out.reshape(nt, da * db, da * db)


def _system_projectors(
    q_projs: Sequence[np.ndarray] | ProjectorFamily, space: HilbertSpace, n_clock: int
) -> np.ndarray:
    """Accept system-factor projectors, or full-space ones acting trivially on
    the clock, and return the (m, d, d) stack of hermitized system-factor
    matrices.  Members are checked in order, each for its shape (or clock
    embedding), hermiticity and idempotency, and the first failing member
    raises its first failed check.  A ``ProjectorFamily`` on the system factor
    was hermitized and checked, to the tighter ``TOL_PROJ``, when it was
    built: its read-only stack is returned as it is."""
    tol = 1e-8
    d_full = space.total_dim
    d_sys = d_full // n_clock
    if isinstance(q_projs, ProjectorFamily):
        if q_projs.dim == d_sys:
            return q_projs._stack
        q_projs = q_projs.projectors
    blocks, structural = [], None
    for q in q_projs:
        q = np.asarray(q, dtype=complex)
        if q.shape == (d_sys, d_sys):
            blocks.append(q)
            continue
        if q.shape != (d_full, d_full):
            structural = f"projector shape {q.shape} matches neither the system ({d_sys}) nor the full space"
            break
        resh = q.reshape(n_clock, d_sys, n_clock, d_sys)
        b = np.einsum("iaib->ab", resh) / n_clock
        rebuilt = np.einsum("ij,ab->iajb", np.eye(n_clock), b).reshape(d_full, d_full)
        if np.max(np.abs(q - rebuilt)) > 1e-9:
            structural = "projector acts on the clock factor"
            break
        blocks.append(b)
    b = np.array(blocks, dtype=complex).reshape(len(blocks), d_sys, d_sys)
    # one Hermitian-defect pass and one hermitize, with the arithmetic of ``hermitize``
    b_h = b.conj().transpose(0, 2, 1)
    defect = np.abs(b - b_h).max(axis=(1, 2), initial=0.0)
    b = 0.5 * (b + b_h)
    residual = b @ b - b
    for i in range(len(blocks)):
        if defect[i] > tol:
            raise ValidationError(f"matrix is not Hermitian: max asymmetry {defect[i]:.3e} > {tol:.1e}")
        if _norm_exceeds(residual[i], tol):
            raise ValidationError("supplied operator is not a projector")
    if structural is not None:
        raise ValidationError(structural)
    return b


def _eigenbasis(h: Observable | None, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvectors V and eigenvalues lambda of ``h``; V = I, lambda = 0 without h."""
    return (np.eye(d, dtype=complex), np.zeros(d)) if h is None else (h.eigenvectors, h.eigenvalues)


def _split_space(rho: DensityOperator, clock: ClockModel) -> tuple[int, int]:
    dims = rho.space.dims
    if len(dims) < 2 or dims[0] != clock.n:
        raise ValidationError(
            f"state must live on clock (dim {clock.n}) tensor system, got factors {dims}"
        )
    return clock.n, math.prod(dims[1:])


def _window_dft(clock: ClockModel, mask: np.ndarray) -> np.ndarray:
    """fft(E)^T for the isometry E onto the grid nodes j in ``mask``: the r DFT
    rows exp(-2 pi i j m / n), built in O(n r) memory.  Each is a root of unity
    of the clock, gathered at the index j m mod n."""
    return clock._roots[np.outer(np.flatnonzero(mask), np.arange(clock.n)) % clock.n]


def _lag_band(y: np.ndarray, nt: int, lag: int, axis: int) -> np.ndarray:
    """The read-only view of y with its ``lag`` axis, the nt + c - 1 lags
    t - s (lowest first) of a chunk of c source times s along ``axis``,
    replaced by t < nt: b[..., s, ..., t, ...] = y[..., s, ..., t - s + c - 1, ...].
    A step in t is one lag and a step in s one entry of ``axis`` less one
    lag, so the band of a convolution over t - s is gathered without index
    arrays."""
    c = y.shape[axis]
    shape, strides = list(y.shape), list(y.strides)
    shape[lag] = nt
    strides[axis] -= strides[lag]
    first = y[(slice(None),) * lag + (slice(c - 1, None),)]
    return np.lib.stride_tricks.as_strided(first, shape, strides, writeable=False)


def _carry(z: np.ndarray, o: np.ndarray, lift: np.ndarray, gram: bool) -> np.ndarray:
    """Carry a reduction to the next window: the scaled rows
    L'(t) = diag(lift_t) [(O_{t-s} (x) I) Z(s)]_s of the state that Z reduces
    to, as L'(t)^T at axes (t, column, a, node), or with ``gram`` its scaled
    cores L'(t) L'(t)^dagger at axes (t, a, node, b, node').

    ``z`` holds Z(s) at axes (a, s, column, node) and ``o`` the 2 nt - 1
    overlaps O_m, lag m = -(nt - 1) first.  Per chunk of source times s, one
    product of the stacked Z with the stacked O of the chunk's lags gives
    every (O_m (x) I) Z(s), and ``_lag_band`` picks m = t - s.  The cores are
    summed over the chunks; a factor with more columns than rows is replaced
    by R^T, R from the QR decomposition of L'(t)^T, updated per chunk."""
    d, nt, c, r = z.shape
    r_next = o.shape[1]
    rows = d * r_next
    # rows (s, column, a) against the node of the window Z lives on
    zs = np.ascontiguousarray(z.transpose(1, 2, 0, 3)).reshape(nt * c * d, r)
    compress = not gram and nt * c > rows
    if gram:
        out = np.zeros((nt, rows, rows), dtype=complex)
    else:
        out = np.empty((nt, 0 if compress else nt * c, rows), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // max(1, (2 * nt - 1) * rows * c))
    for s0 in range(0, nt, step):
        s1 = min(s0 + step, nt)
        y = zs[s0 * c * d : s1 * c * d] @ o[nt - s1 : 2 * nt - 1 - s0].reshape(-1, r).T
        band = _lag_band(y.reshape(s1 - s0, c, d, nt + s1 - s0 - 1, r_next), nt, 3, 0)
        # (t, s, column, a, node), scaled and copied in one pass
        band = (band.transpose(3, 0, 1, 2, 4) * lift[:, None, None, :, None]).reshape(nt, (s1 - s0) * c, rows)
        if gram:
            out += band.transpose(0, 2, 1) @ band.conj()
        elif compress:
            out = np.linalg.qr(np.concatenate([out, band], axis=1), mode="r")
        else:
            out[:, s0 * c : s1 * c] = band
    return out.reshape(nt, d, r_next, d, r_next) if gram else out.reshape(nt, out.shape[1], d, r_next)


def _history_chain(
    rho: DensityOperator,
    clock: ClockModel,
    events: Sequence[ReductionEvent],
    h_system: Observable | None,
    t_grid: np.ndarray,
) -> float:
    """The product of the factors of a history chain of two or more events
    on a uniform time grid, each conditioned on the state that the events
    before it reduce rho to, without building any of those states.

    All of it runs in h's eigenbasis V, with u_t = e^{-i lambda t}.  With
    B_j(s) = e^{iH_c s} E_j, E_j the isometry onto the r_j nodes of event j's
    window, the state before event j enters through its window cores
    C_j(s) = (B_j(s)^dagger (x) I) sigma_{j-1} (B_j(s) (x) I), taken scaled as
    C'_j(s) = w_s (I (x) u_s) C_j(s) (I (x) u_s)^dagger.  p_j is the
    probability of the kernel K_j = sum_s Tr_r C'_j(s), and the reduction by
    event j is D_j(s) = (I (x) u_s^* Q~_j) C'_j(s) (I (x) Q~_j u_s) / N_j, with
    Q~_j = V^dagger Q_j V and N_j = sum_s Tr D_j(s).  The windows meet through
    the overlaps B_{j+1}(t)^dagger B_j(s) = O_{t-s}, with
    O_m = E_{j+1}^dagger e^{-iH_c m dt} E_j, which depend on t - s alone: on a
    uniform grid there are 2 nt - 1 of them.  h_clock is diagonal in the
    Fourier basis of the periodic grid, so the propagator's entry between
    nodes x and y is ifft(e^{-i dispersion m dt}) at x - y mod n, and each O
    is gathered from one inverse FFT of a phase row.  Then

        C_{j+1}(t) = sum_s (O_{t-s} (x) I) D_j(s) (O_{t-s} (x) I)^dagger.

    rho enters as its Gram factor F, and each reduction is carried as a
    factor per time: the first window's scaled rows L'_1(t), with
    C'_1 = L'_1 L'_1^dagger, come from ``_window_rows``, each replaced by R^T
    as in ``_carry`` where it has more than r d columns;
    D_j(s) = Z_j(s) Z_j(s)^dagger with
    Z_j(s) = (I (x) u_s^* Q~_j) L'_j(s) / sqrt(N_j); and ``_carry`` gives

        L'_{j+1}(t) = sqrt(w_t) (I (x) u_t) [(O_{t-s} (x) I) Z_j(s)]_s,

    or, for the next-to-last event, its cores.  With G_m = O_m^dagger O_m the
    last event's marginal is the convolution

        M(t) = sum_s Tr_r((G_{t-s} (x) I) D_{k-1}(s)),

    the band sums of one product of the (2 nt - 1, r^2) table of G with the
    (r^2, nt d^2) stack of D, and p_k comes from the kernel
    sum_t w_t u_t M(t) u_t^*."""
    n, d = _split_space(rho, clock)
    w = clock._quadrature_weights(t_grid)
    v, lam = _eigenbasis(h_system, d)
    nt = t_grid.size
    # u_t = e^{-i lambda t}, its scale sqrt(w_t) u_t and the clock phases, taken
    # before any BLAS call (see ``_conditional_probabilities``)
    u = np.exp(-1j * np.outer(t_grid, lam))
    lift = u * np.sqrt(w)[:, None]
    phase = clock._phases(t_grid, slice(None))
    # e^{-i dispersion (t_m - t_0)} for m = 0 ... nt - 1, and m < 0 as the conjugates;
    # the grid is periodic, so e^{-iH_c m dt} between nodes x and y is its inverse
    # FFT at x - y mod n: O_m[j, l] gathered from one FFT per m
    phase = phase.conj() * phase[0]
    prop = np.fft.ifft(np.concatenate([phase[:0:-1].conj(), phase]))

    def overlaps(mask, nodes):
        return prop[:, (np.flatnonzero(nodes)[:, None] - np.flatnonzero(mask)) % n]

    def projectors(e):
        # the checked (1, d, d) stack and Q~ = V^dagger Q V
        q = _system_projectors([e.q_proj], rho.space, n)
        return q, v.conj().T @ q[0] @ v

    mask = clock._window_mask(events[0].t0, events[0].delta)
    r = int(np.count_nonzero(mask))
    f = rho._gram_factor()
    k = f.shape[1]
    dft = _window_dft(clock, mask) if _rows_by_matmul(n, r) else None
    # L'_1(t)^T at axes (t, column, a, node), per t-chunk; one with more columns
    # than its d r rows is replaced by R^T, R from the QR decomposition of L'_1(t)^T
    parts = []
    for _, _, x in _window_rows(f, clock, mask, t_grid, lift.conj(), None if h_system is None else v, dft):
        x = x.conj().reshape(d, k, r, -1).transpose(3, 1, 0, 2).reshape(-1, k, d * r)
        parts.append(np.linalg.qr(x, mode="r") if k > d * r else x)
    factor = np.concatenate(parts).reshape(nt, -1, d, r)
    total = 1.0
    for j, e in enumerate(events[:-2]):
        # L'_j with rows a: K_j = x x^dagger, and Z_j
        x = factor.transpose(2, 0, 1, 3).reshape(d, factor.size // d)
        q, q_eig = projectors(e)
        total *= float(_kernel_probabilities(x @ x.conj().T, v, q, e.t0)[0])
        if total == 0.0:
            return 0.0
        z = (q_eig @ x).reshape(d, nt, -1, r) * u.conj().T[:, :, None, None]
        norm = float(np.vdot(z, z).real)
        if norm <= 1e-300:
            raise ZeroProbabilityError("reduction has zero probability")
        z /= math.sqrt(norm)
        nodes = clock._window_mask(events[j + 1].t0, events[j + 1].delta)
        factor = _carry(z, overlaps(mask, nodes), lift, j + 3 == len(events))
        mask, r = nodes, int(np.count_nonzero(nodes))
    # the last carry gave the cores of the next-to-last event; the first is a Gram product
    core = factor
    if len(events) == 2:
        flat = factor.reshape(nt, -1, d * r)
        core = (flat.transpose(0, 2, 1) @ flat.conj()).reshape(nt, d, r, d, r)
    # the last two factors from the scaled cores C'_{k-1}(s) at axes (s, a, node, b, node')
    prev, last = events[-2:]
    q, q_eig = projectors(prev)
    total *= float(_kernel_probabilities(np.einsum("sakbk->ab", core), v, q, prev.t0)[0])
    if total == 0.0:
        return 0.0
    # D(s) at axes (a, s, k', k, b) for D(s)[(k, a), (k', b)]: Q~ from each side,
    # then the outer phases u_s^* and u_s and 1/N
    dq = ((q_eig @ core.transpose(1, 0, 4, 2, 3).reshape(d, -1)).reshape(-1, d) @ q_eig).reshape(d, nt, r, r, d)
    norm = float(np.einsum("askka->", dq).real)
    if norm <= 1e-300:
        raise ZeroProbabilityError("reduction has zero probability")
    q_last = _system_projectors([last.q_proj], rho.space, n)
    o = overlaps(mask, clock._window_mask(last.t0, last.delta))
    dq *= (u.conj().T / norm)[:, :, None, None, None] * u[None, :, None, None, :]
    dq = dq.transpose(2, 3, 1, 0, 4).reshape(r * r, nt * d * d)  # rows (k', k)
    g = (o.conj().transpose(0, 2, 1) @ o).reshape(2 * nt - 1, r * r)
    # M(t) = sum_s Y[t - s, s] for Y = G D, over s-chunks of D and their lags
    marginal = np.zeros((nt, d * d), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // ((2 * nt - 1) * d * d))
    for s0 in range(0, nt, step):
        s1 = min(s0 + step, nt)
        y = g[nt - s1 : 2 * nt - 1 - s0] @ dq[:, s0 * d * d : s1 * d * d]
        marginal += _lag_band(y.reshape(nt + s1 - s0 - 1, s1 - s0, d * d), nt, 0, 1).sum(axis=1)
    # the kernel sum_t w_t u_t M(t) u_t^*
    kernel = (marginal.reshape(nt, d, d) * u.conj()[:, None, :] * (w[:, None] * u)[:, :, None]).sum(axis=0)
    return total * float(_kernel_probabilities(kernel, v, q_last, last.t0)[0])


# flop rate of the matmul route over the FFT route, set from the README clock
# (numpy 2.4 pocketfft, OpenBLAS, x86-64): the routes took equal times at
# r / log2 n = 6.8 on two OpenBLAS threads and 5.0 on one, so the rate sits
# below both: on a loaded two-core host the second thread is not always there
_MATMUL_FLOP_RATE = 7.0


def _rows_by_matmul(n: int, r: int) -> bool:
    """Whether ``_window_rows`` takes a factor's window rows by one matmul
    with the r window DFT columns, at 8 n r real flops per column and time,
    rather than by an FFT of each column, at about 5 n log2 n.  The matmul
    ran at about ``_MATMUL_FLOP_RATE`` times the FFT's flop rate, so the
    routes cross near r = 4.4 log2 n."""
    return 8 * r <= _MATMUL_FLOP_RATE * 5 * math.log2(n)


def _window_rows(
    f: np.ndarray,
    clock: ClockModel,
    mask: np.ndarray,
    t_grid: np.ndarray,
    scale: np.ndarray,
    basis: np.ndarray | None,
    dft: np.ndarray | None,
    extra: int = 0,
):
    """Yield ``(sl, phase, x)`` per chunk ``t_grid[sl]``: the chunk's rows P_t
    of ``clock._phases`` and X(t) = conj(L(t)) for its c times, shape
    (d, k r, c), with L(t) the window rows of e^{-iH_c t} F (F of shape
    (n d, k)) and its row a scaled by ``scale[t, a]``^*; a unitary ``basis`` V
    runs this on (I (x) V^dagger) F.  With f = conj(fft(F^T)) / n along the
    clock index, X(t) is the window entries of fft(P_t (.) f): given the
    window's DFT rows ``dft`` (where ``_rows_by_matmul`` says so), one
    matmul per column of F of its (r, n) table f (.) dft with the chunk's
    P^T; otherwise, or where that (d k, r, n) table would hold more entries
    than rho's (n d)^2 matrix, an FFT of each column per time.  ``extra``
    counts the caller's entries per time in the chunk budget
    ``_CHUNK_ENTRIES``."""
    n = clock.n
    d, k = f.shape[0] // n, f.shape[1]
    r = int(np.count_nonzero(mask))
    # F^T, rows (a, k) and the clock index last and contiguous, rotated by one
    # (d, d) x (d, k n) product; then conj(fft(F^T)) / n
    f_t = np.ascontiguousarray(f.reshape(n, d * k).T)
    if basis is not None:
        f_t = (basis.conj().T @ f_t.reshape(d, k * n)).reshape(d * k, n)
    f_bar = np.fft.ifft(f_t.conj())
    # the matmul's (d k, r, n) table is built whole, not per t-chunk: where it
    # would outgrow the state's dense matrix (450 MiB for a full-rank factor at
    # n = 512) the FFTs take the rows
    dft = dft if k * r <= n * d else None
    if dft is not None:
        g = f_bar[:, None, :] * dft
    per_time = n + (d * k * r if dft is not None else d * k * n) + extra
    step = max(1, _CHUNK_ENTRIES // per_time)
    for start in range(0, t_grid.size, step):
        sl = slice(start, min(start + step, t_grid.size))
        phase = clock._phases(t_grid, sl)
        c = phase.shape[0]
        if dft is not None:
            # one (r, n) x (n, c) product per column of F: OpenBLAS ran a product
            # of 2^16 or more multiply-adds on two threads, and on a two-core host
            # with the other core busy such a call (20 x 128 x 49) took 16 ms
            # against 44 us when split, while these stay below it up to n = 128
            x = (g @ phase.T).reshape(d, k * r, c)
        else:
            x = np.fft.fft(phase[:, None, :] * f_bar)[:, :, mask].reshape(c, d, k * r).transpose(1, 2, 0)
        x *= scale[sl].T[:, None, :]
        yield sl, phase, x


def _window_factor(
    rho: DensityOperator,
    clock: ClockModel,
    mask: np.ndarray | None,
    sys_ops: Sequence[np.ndarray],
    h_system: Observable | None,
    t_grid: np.ndarray,
    frame: float = 0.0,
) -> np.ndarray:
    """The factor Y of the window sandwich of rho = F F^dagger, F its Gram factor:
    its columns sqrt(w_t) U (W(t) (x) S(t)) F, ordered (t, S, k), give the
    sandwich as Y Y^dagger.  W(t) is the identity for ``mask`` None, and
    U = e^{-i(H_c + h) T0} labels the state by the reading T0 = ``frame``
    (U = I at 0, the Heisenberg picture).

    In h's eigenbasis V, U S(t) = V u_{t-T0} S~ u_t^* V^dagger with
    S~ = V^dagger S V and u_t = e^{i lambda t} a d-vector, so a column is
    (I (x) V) e^{iH_c (t-T0)} E Z with Z = u_{t-T0} S~ L(t), L(t) the rows of
    ``_window_rows`` scaled by sqrt(w_t) u_t^*.  Back on the clock nodes
    e^{iH_c (t-T0)} E Z = ifft(P_t e^{-i dispersion T0} (.) fft(E) Z): one
    inverse FFT per column and time, fft(E) Z by one matmul per column
    (S, a, k) with the window's DFT rows on ``_rows_by_matmul``'s matmul
    route, else by an FFT of E Z."""
    n = clock.n
    d = rho.dim // n
    f = rho._gram_factor()
    nt, m, k = t_grid.size, len(sys_ops), f.shape[1]
    v, lam = _eigenbasis(h_system, d)
    # u_t = e^{i lambda t}, u_{t-T0} and e^{-i dispersion T0}, taken before any
    # BLAS call (see ``_conditional_probabilities``)
    u = np.exp(1j * np.outer(t_grid, lam))
    left = np.exp(1j * np.outer(t_grid - frame, lam)) if frame else u
    shift = np.exp(-1j * frame * clock.dispersion) if frame else None
    scale = u * np.sqrt(clock._quadrature_weights(t_grid))[:, None]
    basis, s = (None, np.asarray(sys_ops)) if h_system is None else (v, v.conj().T @ sys_ops @ v)
    mask = np.ones(n, dtype=bool) if mask is None else mask
    r = int(np.count_nonzero(mask))
    dft = _window_dft(clock, mask) if _rows_by_matmul(n, r) else None
    y = np.empty((n, d, nt, m, k), dtype=complex)
    for sl, phase, x in _window_rows(f, clock, mask, t_grid, scale, basis, dft, 2 * m * d * k * n):
        c = phase.shape[0]
        # V u_{t-T0} S~ L(t) with L(t) = conj(x): (d, d) x (d, k r c) products per S
        z = (s @ x.conj().reshape(d, k * r * c)).reshape(m, d, k * r, c)
        if basis is not None:  # without h, V = I and u_t = 1
            z *= left[sl].T[:, None, :]
            z = v @ z.reshape(m, d, k * r * c)
        z = z.reshape(m * d * k, r, c).transpose(0, 2, 1)  # each column (S, a, k) as (c, r), times first
        if dft is not None:
            b = z @ dft
        else:
            b = np.zeros((m * d * k, c, n), dtype=complex)
            b[:, :, mask] = z
            b = np.fft.fft(b)
        b *= phase if shift is None else phase * shift
        y[:, :, sl] = np.fft.ifft(b).reshape(m, d, k, c, n).transpose(4, 1, 3, 0, 2)
    return y.reshape(n * d, nt * m * k)


def _window_sandwich(
    rho: DensityOperator,
    clock: ClockModel,
    mask: np.ndarray | None,
    sys_ops: Sequence[np.ndarray],
    h_system: Observable | None,
    t_grid: np.ndarray,
    frame: float = 0.0,
) -> np.ndarray:
    """sum_t w_t sum_S U (W(t) (x) S(t)) rho (W(t) (x) S(t))^dagger U^dagger, with
    W(t) the Heisenberg window on the grid nodes in ``mask`` (the identity for
    None), S(t) the Heisenberg-evolved system operators and U the frame of the
    reading ``frame`` as in ``_window_factor``, built without any full-space
    stack, for a Gram factor F too wide for ``_window_factor``: each time
    contributes (e(t)^T (x) I) G(t) (e(t)^T (x) I)^dagger, with e(t)^T the
    (n, r) matrix e^{iH_c t} E from the chunk's phase rows and G(t) the
    system channel on the (r d)^2 core L(t) L(t)^dagger of ``_window_rows``.
    In h's eigenbasis V, with L(t) scaled by sqrt(w_t) u_t^*, that channel is
    diag(p_t) C with C = sum_S S~ (x) conj(S~) and p_t = u_t (x) conj(u_t).
    U rotates back from that basis with V diag(e^{-i lambda T0}) in place of
    V, and e^{-iH_c T0} is one FFT pair on each clock index.  Without a
    window only the system channel acts, on the blocks of rho's matrix."""
    n = clock.n
    d = rho.dim // n
    v, lam = _eigenbasis(h_system, d)
    u = np.exp(1j * np.outer(t_grid, lam))
    back = v * np.exp(-1j * frame * lam) if frame else v
    p = (u[:, :, None] * u.conj()[:, None, :]).reshape(t_grid.size, d * d)
    w = clock._quadrature_weights(t_grid)
    s = v.conj().T @ np.asarray(sys_ops, dtype=complex) @ v
    chan = np.einsum("sac,sbd->abcd", s, s.conj()).reshape(d * d, d * d)
    if mask is None:
        # W(t) = I: only the system channel acts, summed over t and rotated back
        chan = np.kron(back, back.conj()) @ (chan * ((p.T * w) @ p.conj())) @ np.kron(v, v.conj()).conj().T
        blocks = rho.matrix.reshape(n, d, n, d).transpose(1, 3, 0, 2).reshape(d * d, n * n)
        out = (chan @ blocks).reshape(d, d, n, n).transpose(2, 0, 3, 1)
    else:
        f = rho._gram_factor()
        k, r = f.shape[1], int(np.count_nonzero(mask))
        e0 = _window_dft(clock, mask)
        dft = e0 if _rows_by_matmul(n, r) else None
        scale = u * np.sqrt(w)[:, None]
        acc = np.zeros((n, d * d * n), dtype=complex)
        per_time = r * n * (1 + d * d) + 2 * (r * d) ** 2 + d**4
        for sl, phase, x in _window_rows(f, clock, mask, t_grid, scale, None if h_system is None else v, dft, per_time):
            c = phase.shape[0]
            e = np.fft.ifft(phase[:, None, :] * e0)
            # the scaled L(t) = conj(x) with rows (a, node): its cores at axes (t, a, b, node, node')
            x = x.reshape(d, k, r, c).transpose(3, 0, 2, 1).reshape(c, d * r, k)
            core = (x.conj() @ x.transpose(0, 2, 1)).reshape(c, d, r, d, r).transpose(0, 1, 3, 2, 4)
            g = (p[sl, :, None] * chan) @ core.reshape(c, d * d, r * r)
            # rows (node, a, b), columns node', times conj(e) on the right, then e^T over (t, node)
            g = g.reshape(c, d * d, r, r).transpose(0, 2, 1, 3).reshape(c, r * d * d, r) @ e.conj()
            acc += e.reshape(c * r, n).T @ g.reshape(c * r, d * d * n)
        # back from h's eigenbasis: (I (x) V) out (I (x) V^dagger)
        out = back @ acc.reshape(n, d, d, n).transpose(0, 1, 3, 2).reshape(n, d, n * d)
        out = (out.reshape(n * d * n, d) @ back.conj().T).reshape(n, d, n, d)
    if frame:
        # e^{-iH_c T0} (.) e^{iH_c T0} on the clock indices (i, j) of out[i, a, j, b],
        # one statement per FFT so that no more than two such arrays are alive
        shift = np.exp(-1j * frame * clock.dispersion)
        out = np.fft.fft(out, axis=0)
        out = np.fft.ifft(out, axis=2)
        out *= np.multiply.outer(shift, shift.conj())[:, None, :, None]
        out = np.fft.ifft(out, axis=0)
        out = np.fft.fft(out, axis=2)
    return out.reshape(n * d, n * d)


def _keeps_factor(rho: DensityOperator, t_grid: np.ndarray, n_ops: int) -> bool:
    """Whether the window sandwich of rho over ``n_ops`` system operators is
    kept as its factor Y: Y, of nt |S| k columns for the k columns of rho's
    Gram factor, has no more columns than rows."""
    return t_grid.size * n_ops * rho._gram_factor().shape[1] <= rho.dim


def _sandwich_state(
    rho: DensityOperator,
    clock: ClockModel,
    mask: np.ndarray | None,
    sys_ops: Sequence[np.ndarray],
    h_system: Observable | None,
    t_grid: np.ndarray,
    zero: Exception,
    frame: float = 0.0,
) -> DensityOperator:
    """The window sandwich normalized to unit trace, in the frame of the
    reading ``frame`` (0 for the Heisenberg picture).  Where the factor Y
    (``_window_factor``) has no more columns than rows (``_keeps_factor``)
    the state is Y / ||Y||_F, whether rho is dense or factored; otherwise it
    is the dense num / tr num of ``_window_sandwich``.  A vanishing trace
    raises ``zero``."""
    factored = _keeps_factor(rho, t_grid, len(sys_ops))
    if factored:
        out = _window_factor(rho, clock, mask, sys_ops, h_system, t_grid, frame)
        den = float(np.vdot(out, out).real)
    else:
        out = _window_sandwich(rho, clock, mask, sys_ops, h_system, t_grid, frame)
        den = float(out.trace().real)
    if den <= 1e-300:
        raise zero
    if factored:
        out /= math.sqrt(den)
        return DensityOperator(None, rho.space, factor=out)
    return DensityOperator(matrix=out / den, space=rho.space)


def conditional_probabilities(
    rho: DensityOperator,
    projectors: Sequence[np.ndarray] | ProjectorFamily,
    clock: ClockModel,
    t0: float,
    h_system: Observable | None = None,
    t_grid: np.ndarray | None = None,
) -> np.ndarray:
    """Probabilities that each projector's quantity holds when the clock reads
    in the window around ``t0``; shares one reading quadrature across members.

    Because the window W(t) is idempotent and acts on the other factor,
    Tr((I (x) Q(t)) (W(t) (x) I) rho (W(t) (x) I)) = Tr(Q(t) M(t)) with
    M(t) = Tr_clock((W(t) (x) I) rho), a d x d matrix per time.  In the
    eigenbasis V of h (eigenvalues lambda), Q(t) = V u_t^* Q~ u_t V^dagger
    with u_t = diag(e^{-i lambda t}) and Q~ = V^dagger Q V, so the whole
    quadrature is one d x d kernel

        K = sum_t w_t u_t M~(t) u_t^*,   M~(t) = V^dagger M(t) V,

    built from the state rotated once into that basis, and
    p = Tr(Q~ K) / Tr K.  Without h, V = I and lambda = 0.  With F the
    state's Gram factor, M~(t) = L(t) L(t)^dagger with L(t) the window rows
    of the clock-evolved (I (x) V^dagger) F, and K is one Gram product of
    those rows scaled by sqrt(w_t) u_t (``_window_rows``).
    """
    return _conditional_probabilities(rho, projectors, clock, t0, h_system, t_grid)


def _conditional_probabilities(
    rho: DensityOperator,
    projectors: Sequence[np.ndarray] | ProjectorFamily,
    clock: ClockModel,
    t0: float,
    h_system: Observable | None,
    t_grid: np.ndarray | None,
    half_width: float | None = None,
) -> np.ndarray:
    """``conditional_probabilities`` on the window of half-width ``half_width``
    (default the clock's delta_c) around ``t0``."""
    n_cl, d_sys = _split_space(rho, clock)
    sys_projs = _system_projectors(projectors, rho.space, n_cl)
    t_grid = clock._t_grid(t_grid)
    w = clock._quadrature_weights(t_grid)
    v, lam = _eigenbasis(h_system, d_sys)
    mask = clock._window_mask(t0, half_width)

    # sqrt(w_t) u_t^*, taken before any BLAS call: a complex exp issued
    # right after one ran several times slower (OpenBLAS 0.3.31, x86-64)
    scale = np.exp(1j * np.outer(t_grid, lam)) * np.sqrt(w)[:, None]
    dft = _window_dft(clock, mask) if _rows_by_matmul(n_cl, int(np.count_nonzero(mask))) else None
    kernel = np.zeros((d_sys, d_sys), dtype=complex)
    rows = _window_rows(rho._gram_factor(), clock, mask, t_grid, scale, None if h_system is None else v, dft)
    for _, _, x in rows:  # K = conj(sum_t X(t) X(t)^dagger), one d x d Gram product per t-chunk
        x = x.reshape(d_sys, x.shape[1] * x.shape[2])
        kernel += x @ x.conj().T
    return _kernel_probabilities(kernel.conj(), v, sys_projs, t0)


def _kernel_probabilities(kernel: np.ndarray, v: np.ndarray, sys_projs: np.ndarray, t0: float) -> np.ndarray:
    """p = Tr(Q~ K) / Tr K for each member of the stack ``sys_projs``, with K
    the d x d kernel in the eigenbasis ``v`` of h; a vanishing Tr K means the
    clock never reads ``t0`` on the state."""
    den = float(kernel.trace().real)
    if den <= 0.0:
        raise UnreachableReadingError(f"clock never reads {t0} on this state: normalization {den}")
    # Tr(Q~ K) = Tr(Q V K V^dagger): one rotation back for the whole family
    kernel = v @ kernel @ v.conj().T
    values = np.einsum("iab,ba->i", sys_projs, kernel).real / den
    if ((values < -1e-8) | (values > 1.0 + 1e-8)).any():
        raise ArithmeticError(f"conditional probability left [0, 1]: {values}")
    # np.clip's bounds with two ufunc calls, a few microseconds less per query
    return np.minimum(np.maximum(values, 0.0), 1.0)


def conditional_probability(
    rho: DensityOperator,
    q_proj: np.ndarray,
    clock: ClockModel,
    t0: float,
    h_system: Observable | None = None,
    t_grid: np.ndarray | None = None,
) -> float:
    return float(conditional_probabilities(rho, [q_proj], clock, t0, h_system, t_grid)[0])


@dataclass(frozen=True)
class Trajectory:
    """States labeled by physical time."""

    times: np.ndarray
    states: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = _freeze(self.times, float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if t.size != len(self.states):
            raise ValueError("times and states lengths differ")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))

    def __len__(self) -> int:
        return len(self.states)

    def state_at(self, t: float, atol: float = 1e-9) -> DensityOperator:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > atol:
            raise KeyError(f"time {t} not on trajectory grid (nearest {self.times[idx]})")
        return self.states[idx]

    def to_csv(self, path) -> None:
        d = self.states[0].dim
        cols = ["T"] + [f"{part}_{i}_{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
        comment = "# row-major matrix entries: re_i_j, im_i_j"
        stack = np.stack([st.matrix for st in self.states])
        # below about 1024 entries the pairing's set-up (~0.2 ms) costs more
        # than formatting every entry: 4 qubit states took 0.39 ms against 0.11 ms
        lines = _hermitian_lines(self.times, stack) if stack.size >= 1024 else None
        if lines is None:
            # viewed as float64, each complex128 matrix is its (re, im) pairs in row-major order
            entries = stack.view(np.float64).reshape(len(self), -1)
            _write_csv(path, cols, np.column_stack([self.times, entries]), comment)
        else:
            _write_lines(path, cols, lines, comment)


def _hermitian_lines(times: np.ndarray, stack: np.ndarray):
    """The rows of ``Trajectory.to_csv`` as text, with ``repr`` taken once per
    Hermitian pair: below the diagonal, re_j_i reuses the string of re_i_j,
    and im_j_i that of im_i_j with its sign flipped.  A zero im_i_j is the
    exception, since its mirror may be 0.0 or -0.0: that entry is formatted
    itself.  None unless the stack mirrors bit for bit in this way, with +0.0
    on the imaginary diagonal, as every hermitized state does; the rows then
    equal ``_write_csv``'s byte for byte.  They are formatted a block of about
    4096 entries at a time, so the text is never held whole."""
    n, d, _ = stack.shape
    up_i, up_j = np.triu_indices(d)  # the upper triangle with the diagonal
    s_i, s_j = np.triu_indices(d, 1)
    q, s = up_i.size, s_i.size
    bits = stack.view(np.uint64).reshape(n, d, d, 2)
    above, below = bits[:, s_i, s_j], bits[:, s_j, s_i]
    zero = stack.imag[:, s_i, s_j] == 0.0
    if not (
        np.array_equal(above[..., 0], below[..., 0])
        and np.all(zero | (below[..., 1] == above[..., 1] ^ np.uint64(1 << 63)))
        and not np.any(bits[:, np.arange(d), np.arange(d), 1])
    ):
        return None
    # a row's strings are T, the upper re, the upper im, the mirrored im and "0.0";
    # ``cols`` puts them in the order of the header
    re_col = np.empty((d, d), dtype=np.int64)
    re_col[up_i, up_j] = re_col[up_j, up_i] = 1 + np.arange(q)
    im_col = np.full((d, d), 1 + q + 2 * s)
    im_col[s_i, s_j] = 1 + q + np.arange(s)
    im_col[s_j, s_i] = 1 + q + s + np.arange(s)
    cols = np.zeros(1 + 2 * d * d, dtype=np.int64)
    cols[1::2], cols[2::2] = re_col.ravel(), im_col.ravel()
    step = max(1, 4096 // (d * d))

    def blocks():
        for start in range(0, n, step):
            m, c = stack[start : start + step], min(step, n - start)
            im = list(map(repr, m.imag[:, s_i, s_j].ravel().tolist()))
            mirrored = [t[1:] if t[0] == "-" else "-" + t for t in im]
            for at in np.flatnonzero(zero[start : start + step]):
                mirrored[at] = repr(float(m.imag[at // s, s_j[at % s], s_i[at % s]]))
            table = np.empty((c, 2 + q + 2 * s), dtype=object)
            table[:, 0] = list(map(repr, times[start : start + step].tolist()))
            re = list(map(repr, m.real[:, up_i, up_j].ravel().tolist()))
            table[:, 1 : 1 + q] = np.array(re, dtype=object).reshape(c, q)
            table[:, 1 + q : 1 + q + s] = np.array(im, dtype=object).reshape(c, s)
            table[:, 1 + q + s : 1 + q + 2 * s] = np.array(mirrored, dtype=object).reshape(c, s)
            table[:, -1] = "0.0"
            yield from (",".join(row) for row in table[:, cols].tolist())

    return blocks()


def _write_csv(path, header: list[str], table, comment: str | None = None) -> None:
    """Write a float table row by row: an optional comment line, the header,
    then each value as ``repr`` of a Python float, which reads back to the
    same double."""
    lines = (",".join(map(repr, row.tolist())) for row in np.asarray(table, dtype=float))
    _write_lines(path, header, lines, comment)


def _write_lines(path, header: list[str], lines, comment: str | None = None) -> None:
    """Write an optional comment line, the header, then the formatted rows."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(comment + "\n")
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def newtonian_trajectory(rho0: DensityOperator, h: Observable, t_grid: np.ndarray) -> Trajectory:
    """Unitary Schroedinger evolution sampled on a Newtonian time grid."""
    t = np.asarray(t_grid, dtype=float)
    states = _density_states(_energy_basis_stack(rho0.matrix, h, t), rho0.space)
    return Trajectory(times=t, states=tuple(states), metadata={"kind": "unitary"})


def physical_time_state(rho0: DensityOperator, h: Observable, density: ClockDensity) -> DensityOperator:
    """The unitary evolution of ``rho0`` under ``h`` mixed over the reading
    density p_T.  Evolution and mixture commute with ad_H, so in the energy
    basis rho_mn(T) = rho_mn(0) phi_T(omega_mn), with
    phi_T(omega) = sum_t w_t p_T(t) e^{-i omega t} / sum_t w_t p_T(t) over the
    density's own grid; no trajectory is built.  One-density case of ``_physical_time_states``."""
    return _physical_time_states(rho0, h, [density])[0]


def _physical_time_states(
    rho0: DensityOperator, h: Observable, densities: Sequence[ClockDensity]
) -> list[DensityOperator]:
    """``physical_time_state`` for each of ``densities``, which share one grid:
    one ``_energy_basis_stack`` pass and one check of the (K, d, d) stack."""
    if rho0.dim != h.dim:
        raise ValidationError("state and Hamiltonian dimensions differ")
    weights = np.stack([density._weights() for density in densities])
    total = weights.sum(axis=1, keepdims=True)
    if not np.all(total > 0):
        raise ZeroProbabilityError("clock density has no weight on its grid")
    mix = _energy_basis_stack(rho0.matrix, h, densities[0].t_grid, weights=weights / total)
    return _density_states(mix, rho0.space)


@dataclass(frozen=True)
class EmpiricalSpreadRate:
    """Accumulated reading-variance table b(T) measured from clock densities."""

    t_values: np.ndarray
    b_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_values, dtype=float)
        b = np.asarray(self.b_values, dtype=float)
        if t.ndim != 1 or t.shape != b.shape or not t.size:
            raise ValueError(
                f"t_values and b_values must be non-empty 1-d arrays of equal length, got shapes {t.shape} and {b.shape}"
            )
        order = np.argsort(t)
        object.__setattr__(self, "t_values", _freeze(t[order], None))
        object.__setattr__(self, "b_values", _freeze(b[order], None))

    @classmethod
    def from_densities(cls, densities: Sequence[ClockDensity]) -> "EmpiricalSpreadRate":
        t = [d.t_value for d in densities]
        b = [density_moments(d)[1] for d in densities]
        return cls(t_values=np.array(t), b_values=np.array(b))

    def accumulated(self, T: float) -> float:
        return float(np.interp(T, self.t_values, self.b_values))


RateSource = AccuracyLaw | EmpiricalSpreadRate | None


@dataclass(frozen=True)
class EvolutionSetup:
    """System Hamiltonian plus the dephasing-rate source for physical time."""

    h_system: Observable
    rate_source: RateSource = None
    dt: float | None = None
    sign_convention: int = 1

    def __post_init__(self):
        if self.sign_convention not in (1, -1):
            raise ValueError("sign_convention must be +1 or -1")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")

    @property
    def omega_max(self) -> float:
        w = self.h_system.eigenvalues
        return float(w[-1] - w[0]) if w.size else 0.0

    def accumulated_b(self, T: float) -> float:
        src = self.rate_source
        if src is None:
            return 0.0
        if isinstance(src, AccuracyLaw):
            return src.accumulated_spread(T)
        if isinstance(src, EmpiricalSpreadRate):
            return src.accumulated(T)
        if callable(src):
            return float(src(T))
        raise TypeError(f"unsupported rate source {type(src)!r}")

    def step_size(self, t_end: float) -> float:
        if self.dt is not None:
            return self.dt
        if self.omega_max > 0:
            return min(0.01 / self.omega_max, 0.01 * t_end)
        return 0.01 * t_end


def master_evolve(
    rho0: DensityOperator,
    setup: EvolutionSetup,
    t_end: float,
    record_stride: int = 1,
) -> Trajectory:
    """Solve the physical-time master equation

        drho/dT = -i [H, rho] - (db/dT) [H, [H, rho]]

    exactly.  Both terms are functions of ad_H, so in the energy basis

        rho_mn(T) = rho_mn(0) exp(-i omega_mn T - s omega_mn^2 (b(T) - b(0)))

    with s the sign convention; only the accumulated spread b enters, however
    singular db/dT is at T = 0.  States are reported on the grid of steps of
    ``setup.step_size`` (every ``record_stride``-th step plus the last one).
    A state that leaves the positive cone (anti-dephasing) raises
    ``MasterIntegrationError``.
    """
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be at least 1, got {record_stride}")
    if rho0.dim != setup.h_system.dim:
        raise ValidationError("state and Hamiltonian dimensions differ")
    dt = setup.step_size(t_end)
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    dt = t_end / n_steps
    steps = list(range(record_stride, n_steps + 1, record_stride))
    if not steps or steps[-1] != n_steps:
        steps.append(n_steps)
    times = np.array([0.0] + [k * dt for k in steps])
    b0 = setup.accumulated_b(0.0)
    db = np.array([setup.sign_convention * (setup.accumulated_b(t) - b0) for t in times])
    stack = _energy_basis_stack(rho0.matrix, setup.h_system, times, db)
    try:
        states = [rho0] + _density_states(stack[1:], rho0.space)
    except _StackValidationError as exc:
        raise MasterIntegrationError(
            f"state is no longer a density operator at T = {times[1 + exc.index]}: {exc.reason}"
        ) from exc
    meta = {
        "dt": dt,
        "sign_convention": setup.sign_convention,
        "rate_source": type(setup.rate_source).__name__ if setup.rate_source else "none",
        # only the second moment of the reading density drives the evolution;
        # the first-moment coefficient is reported by density_moments but not used
        "first_moment_used": False,
    }
    return Trajectory(times=times, states=tuple(states), metadata=meta)


def offdiag_decay_factor(omega: float, law: AccuracyLaw, T: float) -> float:
    """exp(-omega^2 * Tp^{2(1-a)} * T^{2a}): surviving fraction of an energy
    off-diagonal after physical time T under the fundamental accuracy bound."""
    return math.exp(-(omega**2) * law.accumulated_spread(T))


@dataclass(frozen=True)
class ReductionEvent:
    """One member of a commuting reduction set: an optional system projector
    and an optional clock window centered at ``t0``."""

    q_proj: np.ndarray | None = None
    t0: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.t0 is not None and not math.isfinite(self.t0):
            raise ValueError(f"reduction event t0 must be finite, got {self.t0!r}")
        if self.delta is not None and not 0 < self.delta < math.inf:
            raise ValueError(f"reduction event delta must be positive and finite, got {self.delta!r}")


def _as_event(e) -> ReductionEvent:
    if isinstance(e, ReductionEvent):
        return e
    if isinstance(e, (tuple, list)) and len(e) in (2, 3):
        return ReductionEvent(*e)
    raise TypeError(f"cannot interpret reduction event {e!r}")


def reduce_state(
    rho: DensityOperator,
    clock: ClockModel,
    events: Sequence,
    h_system: Observable | None = None,
    t_grid: np.ndarray | None = None,
) -> DensityOperator:
    """Normalized quasi-projection: the ordered projector product sandwiched
    around the state and integrated over Newtonian time."""
    events = [_as_event(e) for e in events]
    if not events:
        raise ValueError("at least one reduction event is required")
    n_cl, d_sys = _split_space(rho, clock)
    t_grid = clock._t_grid(t_grid)

    present = _system_projectors([e.q_proj for e in events if e.q_proj is not None], rho.space, n_cl)
    for i in range(len(present)):
        for j in range(i + 1, len(present)):
            if _norm_exceeds(present[i] @ present[j] - present[j] @ present[i], 1e-9):
                raise ValidationError("reduction projectors do not commute")

    # factors taken at the same t multiply under one unitary, so the event list
    # collapses to the intersection of its windows and the product of its projectors
    mask = None
    for e in events:
        if e.t0 is not None:
            nodes = clock._window_mask(e.t0, e.delta)
            mask = nodes if mask is None else mask & nodes
    product = np.eye(d_sys, dtype=complex)
    for b in present:
        product = product @ b

    return _sandwich_state(
        rho, clock, mask, [product], h_system, t_grid, ZeroProbabilityError("reduction has zero probability")
    )


def history_probability(
    rho: DensityOperator,
    clock: ClockModel,
    events: Sequence,
    h_system: Observable | None = None,
    t_grid: np.ndarray | None = None,
) -> float:
    """Chained probability of an ordered sequence of (projector, reading) events:
    each factor conditions on the state reduced by the preceding events.

    On a uniform grid a chain of two or more events (``_history_chain``)
    carries rho's Gram factor from window to window by the clock overlaps,
    and builds no reduced state between events.  Other grids reduce the
    state before each factor but the first."""
    events = [_as_event(e) for e in events]
    if not events:
        raise ValueError("at least one history event is required")
    for e in events:
        if e.q_proj is None or e.t0 is None:
            raise ValueError("history events need both a projector and a clock reading")
    readings = [e.t0 for e in events]
    if any(b < a for a, b in zip(readings, readings[1:])):
        raise ValueError(f"history readings must be ordered in T, got {readings}")
    grid = clock._t_grid(t_grid)
    if len(events) >= 2 and _uniform(grid):
        return _history_chain(rho, clock, events, h_system, grid)
    total = 1.0
    state = rho
    for i, e in enumerate(events):
        # the factor conditions on the event's own window, as its reduction does
        p = float(_conditional_probabilities(state, [e.q_proj], clock, e.t0, h_system, t_grid, e.delta)[0])
        total *= p
        if total == 0.0:
            return 0.0
        if i + 1 < len(events):
            state = reduce_state(state, clock, [e], h_system, t_grid)
    return total


def effective_projector(
    q_proj: np.ndarray,
    clock: ClockModel,
    t0: float,
    h_system: Observable | None = None,
    t_grid: np.ndarray | None = None,
) -> np.ndarray:
    """Reading-density average of the Heisenberg projector: the operator whose
    expectation reproduces the clock-conditioned probability on product states.
    A quasi projector; exact for a delta reading density."""
    density = clock_density(clock, t0, t_grid)
    q = np.asarray(q_proj, dtype=complex)
    if h_system is None:
        return 0.5 * (q + q.conj().T)
    weights = density._weights()
    # e^{iHt} Q e^{-iHt} is Q evolved backwards in time
    f = _energy_basis_stack(q, h_system, -density.t_grid, weights=weights / weights.sum())
    return 0.5 * (f + f.conj().T)


def quasi_projector_defect(f: np.ndarray) -> tuple[float, float]:
    """Rank and defect of a quasi projector: N = Tr F, eta = Tr(F - F^2)/N."""
    tol = 1e-8
    m = hermitize(np.asarray(f, dtype=complex), tol)
    lam = np.linalg.eigvalsh(m)
    if lam[0] < -tol or lam[-1] > 1.0 + tol:
        raise ValueError(f"spectrum outside [0, 1]: [{lam[0]:.3e}, {lam[-1]:.6f}]")
    n = float(lam.sum())
    if n <= tol:
        raise ValueError("operator has (numerically) zero trace")
    eta = float(np.sum(lam - lam**2) / n)
    return n, eta
