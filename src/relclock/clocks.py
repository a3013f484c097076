"""Concrete quantum clocks and clock-reading statistics.

Two grid clocks are provided.  The free-particle clock is a Gaussian
wavepacket on a periodic position grid that drifts at unit speed while
spreading with the standard variance law sigma^2(t) = sigma0^2 +
t^2/(4 m^2 sigma0^2); its reading observable is the grid position.  The
ideal clock is a grid delta translating rigidly, one node per time step, so
its reading distribution is a discrete delta.  Both use spectrally defined
grid Hamiltonians (exact band-limited dynamics, no finite-difference
dispersion).

The clock-reading density over Newtonian time, its mean/variance expansion
coefficients, and the fundamental accuracy bound delta_T = T^a * Tp^(1-a)
with its associated spread-growth rate live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .states import DensityOperator, HilbertSpace, Observable, _freeze

QUAD_TOL = 1e-8

# complex entries of a chunk's largest intermediate (16 MiB), here and in the
# window kernel of ``relational``: the time grid is walked in chunks so that
# memory stays bounded at any nt
_CHUNK_ENTRIES = 1 << 20


class UnreachableReadingError(ValueError):
    """The requested clock reading is never attained on [0, tau]."""


def trapezoid_weights(t_grid: np.ndarray) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid must be a 1-d array with at least 2 points")
    dt = np.diff(t)
    if not np.all(dt > 0):
        raise ValueError("time grid must be strictly increasing")
    w = np.zeros_like(t)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


@dataclass(frozen=True)
class AccuracyLaw:
    """Fundamental time-measurement uncertainty delta_T = T^a * Tp^(1-a)."""

    exponent_a: float
    t_planck: float

    def __post_init__(self):
        if not 0.0 < self.exponent_a <= 1.0:
            raise ValueError(f"exponent must lie in (0, 1], got {self.exponent_a}")
        if not self.t_planck > 0.0:
            raise ValueError(f"t_planck must be positive, got {self.t_planck}")

    def delta_t(self, T: float) -> float:
        if T < 0:
            raise ValueError("elapsed time must be nonnegative")
        if T == 0.0:
            return 0.0
        return T ** self.exponent_a * self.t_planck ** (1.0 - self.exponent_a)

    def accumulated_spread(self, T: float) -> float:
        """b(T) = Tp^(2(1-a)) * T^(2a); the decay exponent per unit omega^2."""
        if T < 0:
            raise ValueError("elapsed time must be nonnegative")
        if T == 0.0:
            return 0.0
        return self.t_planck ** (2.0 * (1.0 - self.exponent_a)) * T ** (2.0 * self.exponent_a)

    def spread_rate(self, T: float) -> float:
        """db/dT; at T = 0 the right-limit (infinite for a < 1/2)."""
        a = self.exponent_a
        if T < 0:
            raise ValueError("elapsed time must be nonnegative")
        if T == 0.0:
            if a < 0.5:
                return math.inf
            if a == 0.5:
                return self.t_planck
            return 0.0
        return 2.0 * a * self.t_planck ** (2.0 * (1.0 - a)) * T ** (2.0 * a - 1.0)


@dataclass(frozen=True)
class ClockModel:
    """A quantum clock on a uniform position-like grid.

    ``dispersion`` holds the Hamiltonian eigenvalues at FFT-ordered wave
    numbers, so time evolution of the (pure) clock state is an elementwise
    phase in Fourier space.  The dense Hamiltonian is materialized lazily and
    only on request; the conditioning quadratures evolve clock vectors by FFT.
    """

    kind: str
    x: np.ndarray
    dispersion: np.ndarray
    psi0: np.ndarray
    delta_c: float
    tau: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("x", "dispersion", "psi0"):
            object.__setattr__(self, name, _freeze(getattr(self, name), None))
        if not self.delta_c > 0:
            raise ValueError("clock window half-width must be positive")
        if not self.tau > 0:
            raise ValueError("operational horizon tau must be positive")

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @cached_property
    def space(self) -> HilbertSpace:
        return HilbertSpace((self.n,))

    @cached_property
    def _fourier_basis(self) -> np.ndarray:
        n = self.n
        j = np.arange(n)
        return np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)

    @cached_property
    def h_clock(self) -> Observable:
        v = self._fourier_basis
        return Observable(matrix=(v * self.dispersion) @ v.conj().T, space=self.space)

    @cached_property
    def rho0(self) -> DensityOperator:
        return DensityOperator.from_vector(self.psi0, self.space)

    def _window_mask(self, t0: float, half_width: float | None = None) -> np.ndarray:
        """Grid nodes whose reading (the grid position) lies within
        ``half_width`` (default ``delta_c``) of ``t0``; a window beyond the
        grid's range, or around a NaN reading, raises."""
        half = self.delta_c if half_width is None else half_width
        lo, hi = t0 - half, t0 + half
        if not (hi >= float(self.x[0]) and lo <= float(self.x[-1])):
            raise UnreachableReadingError(
                f"reading {t0} lies outside the clock range [{self.x[0]}, {self.x[-1]}]"
            )
        return (self.x >= lo) & (self.x <= hi)

    def window_projector(self, t0: float) -> np.ndarray:
        """Dense projector onto the reading window around ``t0``."""
        return np.diag(self._window_mask(t0).astype(complex))

    def evolve_state(self, t_grid: np.ndarray) -> np.ndarray:
        """Clock wavefunction at each grid time, shape (n, n_t)."""
        t = np.atleast_1d(np.asarray(t_grid, dtype=float))
        psi_k = np.fft.fft(self.psi0)
        phases = np.exp(-1j * np.outer(self.dispersion, t))
        return np.fft.ifft(psi_k[:, None] * phases, axis=0)

    def _window_masses(self, t_values: Sequence[float], t_grid: np.ndarray) -> np.ndarray:
        """Probability of each reading window ``t_values[i]`` at each Newtonian
        time, shape (k, n_t), from one evolution of psi0 walked over t-chunks.

        Every window is checked before anything is evolved.  The chunks are
        balanced, so none holds a single column unless n_t = 1: numpy sums an
        (r, 1) array pairwise, an (r, c >= 2) one row by row, and the two round
        differently.  The masses thus equal, bit for bit, those of one
        unchunked ``evolve_state`` over the whole grid, and those summed from
        the clock's reading table, which serves the default grid.
        """
        masks = [self._window_mask(t0) for t0 in t_values]
        t = np.atleast_1d(np.asarray(t_grid, dtype=float))
        out = np.empty((len(masks), t.size))
        table = self._default_readings if t_grid is self._default_grid else None
        if table is not None:
            for row, mask in zip(out, masks):
                row[:] = np.sum(table[mask, :], axis=0)
            return out
        step = max(1, _CHUNK_ENTRIES // self.n)
        start = 0
        for chunk in np.array_split(t, max(1, -(-t.size // step))):
            psi_t = self.evolve_state(chunk)
            sl = slice(start, start + chunk.size)
            for row, mask in zip(out, masks):
                row[sl] = np.sum(np.abs(psi_t[mask, :]) ** 2, axis=0)
            del psi_t  # freed before the next chunk is evolved
            start += chunk.size
        return out

    def window_probabilities(self, t0: float, t_grid: np.ndarray) -> np.ndarray:
        """Probability of the reading window around ``t0`` at each Newtonian time."""
        return self._window_masses([t0], t_grid)[0]

    def default_t_grid(self) -> np.ndarray:
        if self.kind == "ideal":
            # aligned with the grid spacing so rigid translation is exact
            m = int(math.floor(self.tau / self.dx + 1e-9))
            return self.dx * np.arange(m + 1)
        # resolve the reading-density structure (packet width and window)
        # without inflating the full-space quadrature stacks
        sigma0 = float(self.params.get("sigma0", self.delta_c))
        dt = max(min(sigma0, self.delta_c) / 6.0, self.tau / 20000.0)
        n_points = int(math.ceil(self.tau / dt)) + 1
        return np.linspace(0.0, self.tau, min(max(n_points, 48), 20001))

    # The clock-only quadrature tables of the default grid, built on first use
    # and shared, read-only, by every reading on this clock.  A caller's own
    # grid, even one equal to the default, takes the uncached path.

    @cached_property
    def _default_grid(self) -> np.ndarray:
        return _freeze(self.default_t_grid(), None)

    @cached_property
    def _default_weights(self) -> np.ndarray:
        return _freeze(trapezoid_weights(self._default_grid), None)

    @cached_property
    def _default_phases(self) -> np.ndarray | None:
        """e^{i dispersion t} on the default grid, shape (nt, n); None when the
        table would exceed one chunk's budget, and the kernel computes each
        chunk's rows instead."""
        t = self._default_grid
        if t.size * self.n > _CHUNK_ENTRIES:
            return None
        return _freeze(np.exp(1j * np.outer(t, self.dispersion)), None)

    @cached_property
    def _default_readings(self) -> np.ndarray | None:
        """|psi(x, t)|^2 on the default grid, shape (n, nt), from one
        ``evolve_state``: the reading densities sum its window rows.  None
        under the phase table's rule, and the masses are evolved per chunk."""
        t = self._default_grid
        if t.size * self.n > _CHUNK_ENTRIES:
            return None
        return _freeze(np.abs(self.evolve_state(t)) ** 2, None)

    @cached_property
    def _roots(self) -> np.ndarray:
        """The n-th roots of unity exp(-2 pi i q / n), q = 0 ... n - 1: every
        entry of the grid's DFT matrix is one of them."""
        return _freeze(np.exp((-2j * np.pi / self.n) * np.arange(self.n)), None)

    def _t_grid(self, t_grid: np.ndarray | None) -> np.ndarray:
        """``t_grid`` as a float array, or the cached default grid for None."""
        return self._default_grid if t_grid is None else np.asarray(t_grid, dtype=float)

    def _quadrature_weights(self, t_grid: np.ndarray) -> np.ndarray:
        """Trapezoid weights of ``t_grid``, cached for the default grid."""
        return self._default_weights if t_grid is self._default_grid else trapezoid_weights(t_grid)

    def _phases(self, t_grid: np.ndarray, sl: slice) -> np.ndarray:
        """e^{i dispersion t} for the times ``t_grid[sl]``, shape (c, n): rows of
        the cached table for the default grid, computed otherwise."""
        table = self._default_phases if t_grid is self._default_grid else None
        if table is None:
            return np.exp(1j * np.outer(t_grid[sl], self.dispersion))
        return table[sl]


def build_free_particle_clock(
    grid_points: int,
    mass: float,
    sigma0: float,
    delta_c: float,
    tau: float,
) -> ClockModel:
    """Spreading-wavepacket clock drifting at unit speed.

    The grid covers [-pad, tau + pad] periodically; the packet starts at the
    origin so its reading tracks elapsed Newtonian time.
    """
    if grid_points < 8:
        raise ValueError("grid_points must be at least 8")
    if not (mass > 0 and sigma0 > 0):
        raise ValueError("mass and sigma0 must be positive")
    if not (delta_c > 0 and tau > 0):
        raise ValueError("delta_c and tau must be positive")
    sigma_max = math.sqrt(sigma0**2 + tau**2 / (4.0 * mass**2 * sigma0**2))
    pad = max(8.0 * sigma_max, 4.0 * delta_c, 6.0 * sigma0)
    length = tau + 2.0 * pad
    dx = length / grid_points
    if sigma0 < 2.0 * dx:
        raise ValueError(
            f"grid too coarse to resolve sigma0: sigma0 = {sigma0} < 2 dx = {2 * dx:.4g}"
        )
    x = -pad + dx * np.arange(grid_points)
    k = 2.0 * np.pi * np.fft.fftfreq(grid_points, d=dx)
    dispersion = k + k**2 / (2.0 * mass)
    psi0 = np.exp(-(x**2) / (4.0 * sigma0**2)).astype(complex)
    psi0 /= np.linalg.norm(psi0)
    return ClockModel(
        kind="free_particle",
        x=x,
        dispersion=dispersion,
        psi0=psi0,
        delta_c=delta_c,
        tau=tau,
        params={"mass": mass, "sigma0": sigma0},
    )


def build_ideal_clock(grid_points: int, tau: float, delta_c: float | None = None) -> ClockModel:
    """Rigid-translation clock: a grid delta advancing one node per grid time.

    With the default window (just under half a grid step) the reading
    distribution on an aligned time grid is a discrete delta.
    """
    if grid_points < 8:
        raise ValueError("grid_points must be at least 8")
    if not tau > 0:
        raise ValueError("tau must be positive")
    spare = 4
    dx = tau / (grid_points - spare)
    x = dx * np.arange(grid_points)
    k = 2.0 * np.pi * np.fft.fftfreq(grid_points, d=dx)
    psi0 = np.zeros(grid_points, dtype=complex)
    psi0[0] = 1.0
    if delta_c is None:
        delta_c = 0.45 * dx
    return ClockModel(
        kind="ideal",
        x=x,
        dispersion=k,
        psi0=psi0,
        delta_c=delta_c,
        tau=tau,
        params={},
    )


@dataclass(frozen=True)
class ClockDensity:
    """Normalized density over Newtonian time for a fixed clock reading."""

    t_value: float
    t_grid: np.ndarray
    density: np.ndarray
    norm_check: float
    weight: float = 1.0

    def __post_init__(self):
        for name in ("t_grid", "density"):
            object.__setattr__(self, name, _freeze(getattr(self, name), float))
        if self.t_grid.shape != self.density.shape:
            raise ValueError("t_grid and density shapes differ")
        # NaN fails every comparison, so the sign check alone would let it through
        if not np.isfinite(self.density).all():
            raise ValueError("density has non-finite entries")
        if np.any(self.density < -1e-12):
            raise ValueError("density has negative entries")

    def _weights(self) -> np.ndarray:
        """Quadrature weights of the density on its grid: w_t p(t)."""
        return trapezoid_weights(self.t_grid) * self.density

    def _mean_variance(self) -> tuple[float, float]:
        wd = self._weights()
        s = float(np.sum(wd))
        m = float(np.sum(wd * self.t_grid) / s)
        return m, float(np.sum(wd * (self.t_grid - m) ** 2) / s)

    def variance(self) -> float:
        return self._mean_variance()[1]

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))


def clock_densities(
    clock: ClockModel, t_values: Sequence[float], t_grid: np.ndarray | None = None
) -> list[ClockDensity]:
    """Densities that Newtonian time is t given a clock reading in the window
    around each of ``t_values``, normalized over [0, tau] on the supplied grid.
    One evolution of the clock packet serves every reading."""
    t_grid = clock._t_grid(t_grid)
    w = clock._quadrature_weights(t_grid)
    densities = []
    for t0, raw in zip(t_values, clock._window_masses(t_values, t_grid)):
        denom = float(np.sum(w * raw))
        if denom <= 0.0 or not np.isfinite(denom):
            raise UnreachableReadingError(
                f"clock never reads {t0} within [0, {clock.tau}]: normalization integral {denom}"
            )
        densities.append(_normalized_density(t0, t_grid, w, raw, denom))
    return densities


def _normalized_density(t0, t_grid: np.ndarray, w: np.ndarray, raw: np.ndarray, denom: float) -> ClockDensity:
    """raw / denom on ``t_grid`` (quadrature weights ``w``), weighted by its normalization ``denom``."""
    density = raw / denom
    return ClockDensity(float(t0), t_grid, density, norm_check=float(np.sum(w * density)), weight=denom)


def clock_density(clock: ClockModel, t0: float, t_grid: np.ndarray | None = None) -> ClockDensity:
    """Density that Newtonian time is t given a clock reading in the window
    around ``t0``: the one-reading case of ``clock_densities``."""
    return clock_densities(clock, [t0], t_grid)[0]


def gaussian_clock_density(
    t0: float, t_grid: np.ndarray, width: float, mean: float | None = None
) -> ClockDensity:
    """Synthetic Gaussian reading density (grid-normalized)."""
    if width <= 0:
        raise ValueError("width must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    mu = t0 if mean is None else mean
    raw = np.exp(-((t_grid - mu) ** 2) / (2.0 * width**2))
    w = trapezoid_weights(t_grid)
    return _normalized_density(t0, t_grid, w, raw, float(np.sum(w * raw)))


def delta_clock_density(t0: float, t_grid: np.ndarray) -> ClockDensity:
    """Discrete delta at the grid node nearest ``t0``.  A ``t0`` more than half
    a grid step beyond either end of the grid has no nearest node and raises."""
    t_grid = np.asarray(t_grid, dtype=float)
    w = trapezoid_weights(t_grid)
    # the end weights are half the end steps
    if not t_grid[0] - w[0] <= t0 <= t_grid[-1] + w[-1]:
        raise ValueError(f"t0 = {t0} lies beyond the grid [{t_grid[0]}, {t_grid[-1]}]")
    idx = int(np.argmin(np.abs(t_grid - t0)))
    density = np.zeros_like(t_grid)
    density[idx] = 1.0 / w[idx]
    return ClockDensity(
        t_value=float(t0), t_grid=t_grid, density=density, norm_check=1.0, weight=1.0
    )


def density_moments(d: ClockDensity) -> tuple[float, float]:
    """First two expansion coefficients of the reading density around its label.

    Returns ``a = -(mean - T)`` and ``b = variance / 2``.  The ``b``
    coefficient is what enters the dephasing rate of the physical-time master
    equation; ``a`` is reported but deliberately not fed into evolution.
    """
    mean, var = d._mean_variance()
    return -(mean - d.t_value), 0.5 * var
