"""Two-level system dephased by N environment spins.

Pure-dephasing coupling sigma_z x sum_k g_k sigma_z^(k): the system's
off-diagonal element picks up the factor

    z(t) = prod_k [cos(2 g_k t) + i c_k sin(2 g_k t)],    c_k = <sigma_z>_k.

For equal-superposition environment spins the long-time RMS of |z| is
2^(-N/2); with commensurate couplings whose factor periods grow like k! the
joint recurrence time grows like N!.  ``revival_suppression`` checks when the
clock-induced decay at the recurrence time drops below that background.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _accel
from .clocks import AccuracyLaw
from .relational import offdiag_decay_factor
from .states import DensityOperator, ValidationError, _freeze

DIMENSION_CAP = 2**14

# complex entries per time chunk of the register oracle; far below
# clocks._CHUNK_ENTRIES, whose 2^20 entries would add ~35 MB of peak RSS
_ORACLE_CHUNK_ENTRIES = 1 << 14

# square roots of distinct primes are linearly independent over the rationals,
# so no signed combination of couplings vanishes and the dephasing factor has
# no hidden periodicity
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@dataclass(frozen=True)
class SpinEnvironmentModel:
    """Qubit coupled to N environment spins through pure dephasing.

    ``env_angles`` holds per-spin Bloch angles (theta, phi); the polarization
    entering the interference factor is c_k = cos(theta_k).  For commensurate
    coupling modes ``period_units`` stores each factor's period as an exact
    rational multiple of ``period_unit``.
    """

    n_env: int
    couplings: np.ndarray
    system_init: DensityOperator
    env_angles: np.ndarray
    period_units: tuple | None = None
    period_unit: float | None = None

    def __post_init__(self):
        if self.n_env < 1:
            raise ValidationError("need at least one environment spin")
        if 2 ** (self.n_env + 1) > DIMENSION_CAP:
            raise ValidationError(
                f"total dimension 2^{self.n_env + 1} exceeds the cap {DIMENSION_CAP}"
            )
        g = _freeze(self.couplings, float)
        ang = _freeze(self.env_angles, float)
        if g.shape != (self.n_env,):
            raise ValidationError(f"expected {self.n_env} couplings, got shape {g.shape}")
        if ang.shape != (self.n_env, 2):
            raise ValidationError("env_angles must have shape (N, 2)")
        if self.system_init.dim != 2:
            raise ValidationError("system must be a qubit")
        object.__setattr__(self, "couplings", g)
        object.__setattr__(self, "env_angles", ang)

    @property
    def polarizations(self) -> np.ndarray:
        return np.cos(self.env_angles[:, 0])

    def env_amplitudes(self) -> np.ndarray:
        """Product-state amplitudes of the environment register, shape (2^N,).

        Spin 1 is the most significant index bit; bit value 0 is sigma_z = +1.
        ``branch_energies`` indexes configurations in the same order.
        """
        amp = np.array([1.0 + 0.0j])
        for theta, phi in self.env_angles:
            spin = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])
            amp = np.kron(amp, spin)
        return amp

    def branch_energies(self) -> np.ndarray:
        """sum_k g_k s_k over all environment configurations (s_k = +/-1),
        indexed as ``env_amplitudes``: spin 1 most significant, bit 0 is s = +1."""
        e = np.zeros(1)
        for g in self.couplings:
            e = np.add.outer(e, [g, -g]).ravel()
        return e


def _default_system() -> DensityOperator:
    return DensityOperator.from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]), (2,))


def _equal_superposition_angles(n: int) -> np.ndarray:
    return np.column_stack([np.full(n, math.pi / 2.0), np.zeros(n)])


def make_incommensurate_model(
    n_env: int,
    system_init: DensityOperator | None = None,
    env_angles: np.ndarray | None = None,
) -> SpinEnvironmentModel:
    """Couplings sqrt(p_k) over the first N primes: no accidental recurrences."""
    if n_env > len(_PRIMES):
        raise ValidationError(f"incommensurate mode supports up to {len(_PRIMES)} spins")
    g = np.sqrt(np.array(_PRIMES[:n_env], dtype=float))
    return SpinEnvironmentModel(
        n_env=n_env,
        couplings=g,
        system_init=system_init or _default_system(),
        env_angles=_equal_superposition_angles(n_env) if env_angles is None else env_angles,
    )


def make_factorial_model(
    n_env: int,
    base_period: float = 1.0,
    system_init: DensityOperator | None = None,
    env_angles: np.ndarray | None = None,
) -> SpinEnvironmentModel:
    """Commensurate couplings with factor periods 1!, 2!, ..., N! times the
    base period, so the joint recurrence time is N! * base_period."""
    periods = [Fraction(math.factorial(k)) for k in range(1, n_env + 1)]
    g = np.array([math.pi / (float(p) * base_period) for p in periods])
    return SpinEnvironmentModel(
        n_env=n_env,
        couplings=g,
        system_init=system_init or _default_system(),
        env_angles=_equal_superposition_angles(n_env) if env_angles is None else env_angles,
        period_units=tuple(periods),
        period_unit=base_period,
    )


def make_harmonic_model(
    n_env: int,
    g: float = 1.0,
    system_init: DensityOperator | None = None,
) -> SpinEnvironmentModel:
    """Couplings g/k, so factor k has period k * (pi/g)."""
    ks = np.arange(1, n_env + 1)
    periods = [Fraction(int(k)) for k in ks]
    return SpinEnvironmentModel(
        n_env=n_env,
        couplings=g / ks,
        system_init=system_init or _default_system(),
        env_angles=_equal_superposition_angles(n_env),
        period_units=tuple(periods),
        period_unit=math.pi / g,
    )


def interference_factor(model: SpinEnvironmentModel, t) -> complex | np.ndarray:
    """Closed-form factor multiplying the system off-diagonal at time t."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    z = _accel.dephasing_product(model.couplings, model.polarizations, t_arr)
    return complex(z[0]) if np.isscalar(t) or np.ndim(t) == 0 else z


def exact_reduced_coherence(model: SpinEnvironmentModel, t) -> complex | np.ndarray:
    """Off-diagonal of the reduced system state from full-register evolution.

    Each pure component of the initial product state evolves under
    e^{-iHt} = prod_k exp(-i g_k t sigma_z x sigma_z^(k)) on the complete
    2^(N+1)-dimensional space before the environment is traced out.  The
    trace leaves rho_10(t) = sum_e a_e e^{2i E_e t} with
    a_e = sum_p p conj(psi_p[0, e]) psi_p[1, e], which is contracted one
    gate at a time: spin k sums its two register halves with phases
    e^{+2i g_k t} and e^{-2i g_k t}, in the order of ``env_amplitudes``.
    ``t`` may be a scalar (returns a complex) or an array of times, walked in
    chunks.  Real arithmetic keeps every time's result independent of the
    other times in its chunk, so one time reduces exactly as many do.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    chi = model.env_amplitudes()
    w_sys, v_sys = np.linalg.eigh(model.system_init.matrix)
    # full statevector per component, system factor first: index (s, e)
    components = [(p, np.kron(vec, chi).reshape(2, -1)) for p, vec in zip(w_sys, v_sys.T) if p >= 1e-14]
    amp = sum(p * np.conj(psi[0]) * psi[1] for p, psi in components)
    # (real, imag) x time x register, with no time axis yet
    register = np.stack([amp.real, amp.imag])[:, None, :]
    double_g = 2.0 * model.couplings
    step = max(1, _ORACLE_CHUNK_ENTRIES >> model.n_env)
    out = np.empty(t_arr.size, dtype=complex)
    for lo in range(0, t_arr.size, step):
        # e^{2i g_k t}, shape (times, N): N exponentials per time
        phase = np.exp(1j * np.multiply.outer(t_arr[lo : lo + step], double_g))
        re_phase, im_phase = phase.real, phase.imag
        state = register
        for k in range(model.n_env):
            half = state.shape[-1] // 2
            up, down = state[..., :half], state[..., half:]
            # phase * up + conj(phase) * down, in real and imaginary parts
            odd = im_phase[:, k, None] * (up - down)
            state = re_phase[:, k, None] * (up + down)
            state[0] -= odd[1]
            state[1] += odd[0]
        out.real[lo : lo + step] = state[0, :, 0]
        out.imag[lo : lo + step] = state[1, :, 0]
    return complex(out[0]) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class RevivalEstimate:
    analytic_period: float
    scanned_time: float | None
    found: bool
    scan_step: float | None = None


def revival_time_estimate(model: SpinEnvironmentModel, scan: bool = True) -> RevivalEstimate:
    """Joint recurrence time of all dephasing factors.

    The analytic value is the least common multiple of the factor periods in
    exact rational arithmetic; z returns to exactly 1 there.  The grid scan,
    of at most 400 000 points, reports the first |z| > 0.99 recurrence, which
    for symmetric environment polarizations can be an exact divisor of the
    analytic period (every factor magnitude recurs each half period).
    """
    if model.period_units is None or model.period_unit is None:
        raise ValidationError("revival time requires a commensurate coupling mode")
    joint = _fraction_lcm(model.period_units)
    analytic = float(joint) * model.period_unit
    if not scan:
        return RevivalEstimate(analytic_period=analytic, scanned_time=None, found=False)
    threshold = 0.99
    n_pts = min(400_000, max(20_000, 200 * int(float(joint))))
    t_grid = np.linspace(0.0, 1.02 * analytic, n_pts)
    step = t_grid[1] - t_grid[0]
    z = np.abs(interference_factor(model, t_grid))
    # skip the initial decay from t = 0 before searching for a recurrence
    start = int(np.argmax(z < threshold))
    rec = np.nonzero(z[start:] > threshold)[0]
    if rec.size == 0:
        return RevivalEstimate(analytic_period=analytic, scanned_time=None, found=False, scan_step=step)
    # report the peak of the first above-threshold excursion, not its edge
    lo = start + rec[0]
    hi = lo
    while hi + 1 < z.size and z[hi + 1] > threshold:
        hi += 1
    peak = lo + int(np.argmax(z[lo : hi + 1]))
    return RevivalEstimate(
        analytic_period=analytic,
        scanned_time=float(t_grid[peak]),
        found=True,
        scan_step=step,
    )


def _fraction_lcm(fractions) -> Fraction:
    fs = [Fraction(f) for f in fractions]
    return Fraction(math.lcm(*(f.numerator for f in fs)), math.gcd(*(f.denominator for f in fs)))


@dataclass(frozen=True)
class SuppressionReport:
    """Whether clock-induced decay at the revival time beats the 2^(-N/2)
    interference background, and the minimal N for which it does."""

    n_env: int
    t_revival: float
    decay_at_revival: float
    background: float
    suppressed: bool
    n_min: int

    def as_dict(self) -> dict:
        return {
            "N": self.n_env,
            "T_revival": self.t_revival,
            "D_rev": self.decay_at_revival,
            "background": self.background,
            "suppressed": self.suppressed,
            "N_min": self.n_min,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _log_decay_exponent(law: AccuracyLaw, omega: float, log_t_rev: float, planck_per_unit: float) -> float:
    """log of the decay exponent omega^2 Tp'^(2-2a) Trev^(2a) with the Planck
    time expressed in simulation units (Tp' = 1/planck_per_unit)."""
    a = law.exponent_a
    return (
        2.0 * math.log(omega)
        - (2.0 - 2.0 * a) * math.log(planck_per_unit)
        + 2.0 * a * log_t_rev
    )


def minimal_suppression_n(
    law: AccuracyLaw,
    omega: float,
    base_period: float,
    planck_per_unit: float,
) -> int:
    """Smallest environment size, up to 100 000, whose revival-time decay
    exponent exceeds the interference background exponent (N/2) ln 2.
    Factorials are handled in log space, so N is not limited by the
    simulation dimension cap."""
    n_cap = 100_000
    for n in range(1, n_cap + 1):
        log_t_rev = math.lgamma(n + 1) + math.log(base_period)
        log_expo = _log_decay_exponent(law, omega, log_t_rev, planck_per_unit)
        log_bg_expo = math.log(0.5 * n * math.log(2.0))
        if log_expo > log_bg_expo:
            return n
    raise RuntimeError(f"no suppression below N = {n_cap}")


def revival_suppression(
    model: SpinEnvironmentModel,
    law: AccuracyLaw,
    omega: float,
    planck_per_unit: float,
) -> SuppressionReport:
    """Compare clock decay at the model's revival time with the 2^(-N/2)
    background.  ``planck_per_unit`` is the unit bridge: how many Planck times
    one simulation time unit spans."""
    if planck_per_unit <= 0:
        raise ValueError("planck_per_unit must be positive")
    if omega <= 0:
        raise ValueError("omega must be positive")
    est = revival_time_estimate(model, scan=False)
    t_rev = est.analytic_period
    # the bridge states the simulation unit in multiples of the Planck time,
    # so the Planck time in simulation units is its reciprocal
    scaled_law = AccuracyLaw(exponent_a=law.exponent_a, t_planck=1.0 / planck_per_unit)
    decay = offdiag_decay_factor(omega, scaled_law, t_rev)
    background = 2.0 ** (-model.n_env / 2.0)
    base_period = model.period_unit if model.period_unit is not None else 1.0
    n_min = minimal_suppression_n(law, omega, base_period, planck_per_unit)
    return SuppressionReport(
        n_env=model.n_env,
        t_revival=t_rev,
        decay_at_revival=decay,
        background=background,
        suppressed=decay < background,
        n_min=n_min,
    )


def reduced_system_state(model: SpinEnvironmentModel, t: float) -> DensityOperator:
    """Reduced qubit state at time t from the exact register evolution."""
    z = interference_factor(model, float(t))
    rho0 = model.system_init.matrix
    out = rho0.copy()
    out[1, 0] = rho0[1, 0] * z
    out[0, 1] = np.conj(out[1, 0])
    return DensityOperator.from_matrix(out, (2,))


def rms_coherence(model: SpinEnvironmentModel, t_max: float, n_points: int = 40_001) -> float:
    """Root-mean-square of |z(t)| over [0, t_max]."""
    t = np.linspace(0.0, t_max, n_points)
    z = interference_factor(model, t)
    return float(np.sqrt(np.mean(np.abs(z) ** 2)))
