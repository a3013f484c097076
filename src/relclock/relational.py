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
    clock_density,
    density_moments,
    trapezoid_weights,
)
from .states import (
    DensityOperator,
    HilbertSpace,
    Observable,
    ProjectorFamily,
    ValidationError,
    _density_states,
    _freeze,
    _StackValidationError,
    hermitize,
    spectral_norm,
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
    ``weights`` the factors are summed over times, sum_t weights_t exp(...),
    and one matrix is returned instead of the stack."""
    v = h.eigenvectors
    # tilde before the exponent: a complex exp issued directly after a BLAS
    # call ran several times slower (OpenBLAS 0.3.31 Haswell kernels, x86-64)
    tilde = v.conj().T @ op @ v
    lam = h.eigenvalues
    omega = lam[:, None] - lam[None, :]
    exponent = -1j * times[:, None, None] * omega
    if db is not None:
        exponent -= db[:, None, None] * omega**2
    factor = np.exp(exponent, out=exponent)
    if weights is not None:
        factor = np.tensordot(weights, factor, axes=1)
    return v @ (tilde * factor) @ v.conj().T


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


def _system_projector(q_proj: np.ndarray, space: HilbertSpace, n_clock: int) -> np.ndarray:
    """Accept a system-factor projector, or a full-space one acting trivially
    on the clock, and return the system-factor matrix."""
    d_full = space.total_dim
    d_sys = d_full // n_clock
    q = np.asarray(q_proj, dtype=complex)
    if q.shape == (d_sys, d_sys):
        b = q
    elif q.shape == (d_full, d_full):
        resh = q.reshape(n_clock, d_sys, n_clock, d_sys)
        b = np.einsum("iaib->ab", resh) / n_clock
        rebuilt = np.einsum("ij,ab->iajb", np.eye(n_clock), b).reshape(d_full, d_full)
        if np.max(np.abs(q - rebuilt)) > 1e-9:
            raise ValidationError("projector acts on the clock factor")
    else:
        raise ValidationError(
            f"projector shape {q.shape} matches neither the system ({d_sys}) nor the full space"
        )
    b = hermitize(b, 1e-8)
    if spectral_norm(b @ b - b) > 1e-8:
        raise ValidationError("supplied operator is not a projector")
    return b


def _split_space(rho: DensityOperator, clock: ClockModel) -> tuple[int, int]:
    dims = rho.space.dims
    if len(dims) < 2 or dims[0] != clock.n:
        raise ValidationError(
            f"state must live on clock (dim {clock.n}) tensor system, got factors {dims}"
        )
    return clock.n, int(np.prod(dims[1:]))


def _window_dft(n: int, mask: np.ndarray) -> np.ndarray:
    """fft(E) for the isometry E onto the grid nodes j in ``mask``: the r DFT
    columns exp(-2 pi i m j / n), built in O(n r) memory.  m j is reduced mod n
    in integers, so every phase is taken at an angle below 2 pi."""
    nodes = np.flatnonzero(mask)
    return np.exp((-2j * np.pi / n) * (np.outer(np.arange(n), nodes) % n))


def _window_cores(
    rho: DensityOperator, clock: ClockModel, mask: np.ndarray, t_grid: np.ndarray, form: str = "core"
):
    """Yield ``(sl, e, out)`` for consecutive chunks ``t_grid[sl]`` of the time grid.

    With E the isometry onto the r grid nodes in ``mask``, ``e[t] = e^{iH_c t} E``
    (shape (c, n, r)) factors the Heisenberg window as W(t) = e[t] e[t]^dagger;
    h_clock is diagonal in the Fourier basis, so ``e`` is a batch of FFTs.
    ``out`` depends on ``form``:

    - ``"core"``: core[t] = (e[t]^dagger (x) I) rho (e[t] (x) I), with the entry
      [(k, a), (k', b)] at axes (k, a, b, k'): (r d)^2 numbers per time where
      the Heisenberg-evolved full-space window takes (n d)^2;
    - ``"traced"``: the d x d marginal Tr_r core[t];
    - ``"rows"`` (Gram-factored states only): (W(t) (x) I) F, of shape (c, n, d k).

    The state enters as a product rho = A B, and core[t] = L(t) R(t) with
    L(t) = (e[t]^dagger (x) I) A and R(t) = B (e[t] (x) I).  A dense state has
    A = rho and B = I: rho (e[t] (x) I) is one matmul with the dense rho, at
    O(n^2 r d^2) per time.  A Gram factor F has A = F and B = F^dagger, so
    R(t) = L(t)^dagger.  L(t) transforms the narrower operand: with d k <= r it
    is the window rows of F's clock index evolved by one FFT per time, at
    O(k d n log n), and needs no ``e`` for a marginal or rows (``e`` is then
    None); otherwise it is e[t]^dagger F, one matmul after evolving e's r columns.
    """
    n = clock.n
    d = rho.dim // n
    r = int(np.count_nonzero(mask))
    f = rho.factor
    if f is None:
        # rho[(i, a), (j, b)] with rows (i, a, b) and columns j
        rho_j = rho.matrix.reshape(n, d, n, d).transpose(0, 1, 3, 2).reshape(n * d * d, n)
        per_time = n * d * d * r
        with_e = True
    else:
        k = f.shape[1]
        f = f.reshape(n, d * k)
        fft_rows = d * k <= r
        if fft_rows:
            f_hat = np.fft.fft(f, axis=0)
        with_e = form == "core" or not fft_rows
        per_time = n * d * k + (n * r if with_e else 0) + ((r * d) ** 2 if form == "core" else 0)
    if with_e:
        e0 = _window_dft(n, mask)
    step = max(1, _CHUNK_ENTRIES // max(1, per_time))
    for start in range(0, t_grid.size, step):
        t = t_grid[start : start + step]
        c = t.size
        sl = slice(start, start + c)
        phase = np.exp(1j * np.outer(t, clock.dispersion))
        e = np.fft.ifft(phase[:, :, None] * e0, axis=1) if with_e else None
        if f is None:
            y = rho_j @ e.transpose(1, 0, 2).reshape(n, c * r)
            y = y.reshape(n, d * d, c, r).transpose(2, 0, 1, 3).reshape(c, n, d * d * r)
            core = (e.conj().transpose(0, 2, 1) @ y).reshape(c, r, d, d, r)
            yield sl, e, np.einsum("tkabk->tab", core) if form == "traced" else core
            continue
        if fft_rows:
            # e^{-iH_c t} on the clock index of F
            g = np.fft.ifft(phase.conj()[:, :, None] * f_hat, axis=1)
            if form == "rows":
                # back from the window rows: e^{iH_c t} E E^dagger e^{-iH_c t} F
                g[:, ~mask] = 0.0
                g = np.fft.fft(g, axis=1)
                g *= phase[:, :, None]
                yield sl, e, np.fft.ifft(g, axis=1)
                continue
            left = g[:, mask]
        else:
            left = e.conj().transpose(0, 2, 1) @ f
            if form == "rows":
                yield sl, e, e @ left
                continue
        left = left.reshape(c, r, d, k)
        if form == "traced":
            yield sl, e, np.einsum("tkaj,tkbj->tab", left, left.conj())
        else:
            flat = left.reshape(c, r * d, k)
            core = flat @ flat.conj().transpose(0, 2, 1)
            yield sl, e, core.reshape(c, r, d, r, d).transpose(0, 1, 2, 4, 3)


def _window_factor(
    rho: DensityOperator,
    clock: ClockModel,
    mask: np.ndarray | None,
    sys_ops: Sequence[np.ndarray],
    h_system: Observable | None,
    t_grid: np.ndarray,
) -> np.ndarray:
    """The factor Y of the window sandwich of a Gram-factored rho = F F^dagger:
    its columns sqrt(w_t) (W(t) (x) S(t)) F, ordered (t, S, k), give the
    sandwich as Y Y^dagger.  W(t) is the identity for ``mask`` None."""
    n = clock.n
    d = rho.dim // n
    k = rho.factor.shape[1]
    nt = t_grid.size
    s_t = np.stack([heisenberg_stack(op, h_system, t_grid) for op in sys_ops], axis=1)
    s_t *= np.sqrt(trapezoid_weights(t_grid))[:, None, None, None]
    y = np.empty((n, d, nt, len(sys_ops), k), dtype=complex)
    if mask is None:
        chunks = [(slice(0, nt), None, np.broadcast_to(rho.factor, (nt, n * d, k)))]
    else:
        chunks = _window_cores(rho, clock, mask, t_grid, "rows")
    for sl, _, x in chunks:
        # one (|S| d, d) x (d, n k) product per time
        x = x.reshape(-1, n, d, k).transpose(0, 2, 1, 3).reshape(-1, d, n * k)
        sx = (s_t[sl].reshape(-1, len(sys_ops) * d, d) @ x).reshape(-1, len(sys_ops), d, n, k)
        y[:, :, sl] = sx.transpose(3, 2, 0, 1, 4)
    return y.reshape(n * d, -1)


def _window_sandwich(
    rho: DensityOperator,
    clock: ClockModel,
    mask: np.ndarray | None,
    sys_ops: Sequence[np.ndarray],
    h_system: Observable | None,
    t_grid: np.ndarray,
) -> np.ndarray:
    """sum_t w_t sum_S (W(t) (x) S(t)) rho (W(t) (x) S(t))^dagger, with W(t) the
    Heisenberg window on the grid nodes in ``mask`` (the identity for None) and
    S(t) the Heisenberg-evolved system operators, built without any full-space
    stack: each time contributes (e(t) (x) I) G(t) (e(t) (x) I)^dagger with
    G(t) the system channel applied to the (r d)^2 core."""
    n = clock.n
    d = rho.dim // n
    nt = t_grid.size
    # X -> sum_S S(t) X S(t)^dagger on the system factor: a (d^2, d^2) matrix per time
    chan = np.zeros((nt, d, d, d, d), dtype=complex)
    for op in sys_ops:
        s_t = heisenberg_stack(op, h_system, t_grid)
        chan += np.einsum("tac,tbd->tabcd", s_t, s_t.conj())
    chan = trapezoid_weights(t_grid)[:, None, None] * chan.reshape(nt, d * d, d * d)
    if mask is None:
        # W(t) = I: the clock unitaries cancel and only the system channel acts
        blocks = rho.matrix.reshape(n, d, n, d).transpose(1, 3, 0, 2).reshape(d * d, n * n)
        out = (chan.sum(axis=0) @ blocks).reshape(d, d, n, n).transpose(2, 0, 3, 1)
        return out.reshape(n * d, n * d)
    acc = np.zeros((n * d * d, n), dtype=complex)
    for sl, e, core in _window_cores(rho, clock, mask, t_grid):
        c, r = e.shape[0], e.shape[2]
        g = chan[sl] @ core.transpose(0, 2, 3, 1, 4).reshape(c, d * d, r * r)
        g = g.reshape(c, d * d, r, r).transpose(0, 2, 1, 3).reshape(c, r, d * d * r)
        x = (e @ g).reshape(c, n, d * d, r).transpose(1, 2, 0, 3).reshape(n * d * d, c * r)
        acc += x @ e.conj().transpose(0, 2, 1).reshape(c * r, n)
    return acc.reshape(n, d, d, n).transpose(0, 1, 3, 2).reshape(n * d, n * d)


def _keeps_factor(rho: DensityOperator, t_grid: np.ndarray, n_ops: int) -> bool:
    """Whether the window sandwich of rho over ``n_ops`` system operators is
    kept as its factor Y: rho is Gram-factored and Y, of nt |S| k columns, has
    no more columns than rows."""
    return rho.factor is not None and t_grid.size * n_ops * rho.factor.shape[1] <= rho.dim


def _sandwich_state(
    rho: DensityOperator,
    clock: ClockModel,
    mask: np.ndarray | None,
    sys_ops: Sequence[np.ndarray],
    h_system: Observable | None,
    t_grid: np.ndarray,
    zero: Exception,
) -> DensityOperator:
    """The window sandwich normalized to unit trace.  A Gram-factored rho whose
    factor Y (``_window_factor``) has no more columns than rows gives the
    factored state Y / ||Y||_F; any other rho gives the dense num / tr num of
    ``_window_sandwich``.  A vanishing trace raises ``zero``."""
    factored = _keeps_factor(rho, t_grid, len(sys_ops))
    if factored:
        out = _window_factor(rho, clock, mask, sys_ops, h_system, t_grid)
        den = float(np.vdot(out, out).real)
    else:
        out = _window_sandwich(rho, clock, mask, sys_ops, h_system, t_grid)
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
    M(t) = Tr_clock((W(t) (x) I) rho), a d x d matrix per time.
    """
    if isinstance(projectors, ProjectorFamily):
        projectors = projectors.projectors
    n_cl, d_sys = _split_space(rho, clock)
    sys_projs = [_system_projector(q, rho.space, n_cl) for q in projectors]
    t_grid = clock._t_grid(t_grid)
    w = trapezoid_weights(t_grid)

    marginal = np.empty((t_grid.size, d_sys, d_sys), dtype=complex)
    for sl, _, m in _window_cores(rho, clock, clock._window_mask(t0), t_grid, "traced"):
        marginal[sl] = m
    den = float(np.sum(w * np.einsum("taa->t", marginal).real))
    if den <= 0.0:
        raise UnreachableReadingError(f"clock never reads {t0} on this state: normalization {den}")
    values = np.empty(len(sys_projs), dtype=float)
    for i, b in enumerate(sys_projs):
        b_t = heisenberg_stack(b, h_system, t_grid)
        values[i] = float(np.sum(w * np.einsum("tba,tab->t", b_t, marginal).real)) / den
    if np.any(values < -1e-8) or np.any(values > 1.0 + 1e-8):
        raise ArithmeticError(f"conditional probability left [0, 1]: {values}")
    return np.clip(values, 0.0, 1.0)


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
        # viewed as float64, each complex128 matrix is its (re, im) pairs in row-major order
        entries = np.stack([st.matrix for st in self.states]).view(np.float64).reshape(len(self), -1)
        table = np.column_stack([self.times, entries])
        _write_csv(path, cols, table, comment="# row-major matrix entries: re_i_j, im_i_j")


def _write_csv(path, header: list[str], table, comment: str | None = None) -> None:
    """Write a float table row by row: an optional comment line, the header,
    then each value as ``repr`` of a Python float, which reads back to the
    same double."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(comment + "\n")
        fh.write(",".join(header) + "\n")
        for row in np.asarray(table, dtype=float):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


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
    density's own grid; no trajectory is built."""
    if rho0.dim != h.dim:
        raise ValidationError("state and Hamiltonian dimensions differ")
    weights = density._weights()
    total = float(weights.sum())
    if total <= 0:
        raise ZeroProbabilityError("clock density has no weight on its grid")
    mix = _energy_basis_stack(rho0.matrix, h, density.t_grid, weights=weights / total)
    return DensityOperator(matrix=mix, space=rho0.space)


@dataclass(frozen=True)
class EmpiricalSpreadRate:
    """Accumulated reading-variance table b(T) measured from clock densities."""

    t_values: np.ndarray
    b_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_values, dtype=float)
        order = np.argsort(t)
        object.__setattr__(self, "t_values", _freeze(t[order], None))
        object.__setattr__(self, "b_values", _freeze(np.asarray(self.b_values, dtype=float)[order], None))

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
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")

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
    if t_end <= 0:
        raise ValueError("t_end must be positive")
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

    present = [_system_projector(e.q_proj, rho.space, n_cl) for e in events if e.q_proj is not None]
    for i in range(len(present)):
        for j in range(i + 1, len(present)):
            if spectral_norm(present[i] @ present[j] - present[j] @ present[i]) > 1e-9:
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
    each factor conditions on the state reduced by the preceding events."""
    events = [_as_event(e) for e in events]
    for e in events:
        if e.q_proj is None or e.t0 is None:
            raise ValueError("history events need both a projector and a clock reading")
    readings = [e.t0 for e in events]
    if any(b < a for a, b in zip(readings, readings[1:])):
        raise ValueError(f"history readings must be ordered in T, got {readings}")
    total = 1.0
    state = rho
    for i, e in enumerate(events):
        p = conditional_probability(state, e.q_proj, clock, e.t0, h_system, t_grid)
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
