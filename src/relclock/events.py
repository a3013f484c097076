"""Event detection by undecidability, and the lattice of actualized properties.

A candidate event compares the clock-conditioned state with its pinching over
a complete family of outcome projectors.  When no projector test can tell the
two apart to better than exp(-alpha * N) for N environment particles, the
event is declared and the outcome statistics and compatible sub-properties
are recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .clocks import _CHUNK_ENTRIES, ClockModel, clock_density
from .relational import (
    ZeroProbabilityError,
    _eigenbasis,
    _keeps_factor,
    _sandwich_state,
    _split_space,
    _window_factor,
    conditional_probabilities,
)
from .states import (
    TOL_PROJ,
    TOL_TRACE,
    DensityOperator,
    Observable,
    ProjectorFamily,
    ValidationError,
    _norm_exceeds,
)


def _conditioned_state(rho, clock, t0, sys_ops, h_system, t_grid, picture, zero) -> DensityOperator:
    """The normalized window sandwich around ``t0`` over ``sys_ops`` ([I] for
    ``rho_mod``, the family for ``rho_event``), in the Schroedinger frame of
    the reading t0 unless ``picture`` is "heisenberg".  A vanishing trace raises ``zero``."""
    if picture not in ("heisenberg", "schrodinger"):
        raise ValueError(f"unknown picture {picture!r}")
    mask, frame = clock._window_mask(t0), (t0 if picture == "schrodinger" else 0.0)
    return _sandwich_state(rho, clock, mask, sys_ops, h_system, clock._t_grid(t_grid), zero, frame)


def rho_mod(
    rho: DensityOperator,
    clock: ClockModel,
    t0: float,
    h_system: Observable | None = None,
    t_grid: np.ndarray | None = None,
    picture: str = "schrodinger",
) -> DensityOperator:
    """State conditioned on the clock reading alone (window sandwich over t).

    ``picture="schrodinger"`` (default) labels the result by the reading, so
    an ideal clock yields the unitarily evolved system at t0 next to the
    collapsed clock window; ``"heisenberg"`` returns the raw sandwich integral.
    """
    _, d_sys = _split_space(rho, clock)
    return _conditioned_state(
        rho, clock, t0, [np.eye(d_sys, dtype=complex)], h_system, t_grid, picture,
        ZeroProbabilityError("reduction has zero probability"),
    )


def _check_family(rho: DensityOperator, family: ProjectorFamily, clock: ClockModel) -> None:
    _, d_sys = _split_space(rho, clock)
    if family.dim != d_sys:
        raise ValidationError(f"family dimension {family.dim} does not match system {d_sys}")
    if not family.complete:
        raise ValidationError("outcome family must be complete on the system factor")


def rho_event(
    rho: DensityOperator,
    family: ProjectorFamily,
    clock: ClockModel,
    t0: float,
    h_system: Observable | None = None,
    t_grid: np.ndarray | None = None,
    picture: str = "schrodinger",
) -> DensityOperator:
    """Clock-conditioned state additionally pinched over the outcome family:
    what the state would be had one of the outcomes definitely occurred."""
    _check_family(rho, family, clock)
    # the family is complete, so pinching keeps the trace of the window sandwich
    return _conditioned_state(
        rho, clock, t0, family.projectors, h_system, t_grid, picture,
        ValidationError("clock reading has zero probability"),
    )


def pinch(matrix: np.ndarray, family: ProjectorFamily) -> np.ndarray:
    """Sum of P rho P over the family members."""
    m = np.asarray(matrix, dtype=complex)
    return sum(p @ m @ p for p in family.projectors)


def distinguishability(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Best projector test: max over projectors P of |Tr(P (rho1 - rho2))|.

    Equals the sum of positive eigenvalues of the difference, i.e. half its
    trace norm for traceless differences.
    """
    if rho1.space.total_dim != rho2.space.total_dim:
        raise ValidationError("states live on different spaces")
    diff = rho1.matrix - rho2.matrix
    lam = np.linalg.eigvalsh(diff)
    return float(lam[lam > 0].sum())


def _greedy_matching(candidate: ProjectorFamily, essential: ProjectorFamily) -> list[int]:
    """For each essential member, the candidate member of largest overlap
    Tr(P_b P_a); ties resolve to the lowest candidate index."""
    matches = []
    for pa in essential.projectors:
        overlaps = np.array([float(np.einsum("ij,ji->", pb, pa).real) for pb in candidate.projectors])
        matches.append(int(np.argmax(overlaps)))
    return matches


def property_included(candidate: ProjectorFamily, essential: ProjectorFamily) -> bool:
    """Whether the candidate property is implied by the essential one.

    Operator-level inclusion: some candidate member absorbs each essential
    projector (P_b P_a = P_a) while every other member annihilates it, both
    to TOL_PROJ in spectral norm.
    """
    if candidate.dim != essential.dim:
        raise ValidationError("families live on different spaces")
    matches = _greedy_matching(candidate, essential)
    for pa, m in zip(essential.projectors, matches):
        for idx, pb in enumerate(candidate.projectors):
            prod = pb @ pa
            if idx == m:
                if _norm_exceeds(prod - pa, TOL_PROJ):
                    return False
            else:
                if _norm_exceeds(prod, TOL_PROJ):
                    return False
    return True


@dataclass(frozen=True)
class PropertyLattice:
    """Inclusion verdicts for candidate properties against an essential family."""

    essential: ProjectorFamily
    candidate_labels: tuple
    included: tuple
    transfer_residuals: tuple

    def as_dict(self) -> dict:
        return {
            "candidates": [
                {
                    "label": str(lbl),
                    "included": bool(inc),
                    "transfer_residual": None if res is None else float(res),
                }
                for lbl, inc, res in zip(
                    self.candidate_labels, self.included, self.transfer_residuals
                )
            ],
            "essential_ranks": list(self.essential.ranks()),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def actualized_properties(
    essential: ProjectorFamily,
    candidates: list[tuple[str, ProjectorFamily]],
    state: DensityOperator | np.ndarray | None = None,
) -> PropertyLattice:
    """Mark each candidate included/excluded; for included candidates verify on
    the supplied state that pinching over the candidate equals pinching over
    the essential family (so included properties inherit undecidability)."""
    labels, included, residuals = [], [], []
    rho = None
    if state is not None:
        rho = state.matrix if isinstance(state, DensityOperator) else np.asarray(state, dtype=complex)
    pinched_essential = pinch(rho, essential) if rho is not None else None
    for label, fam in candidates:
        ok = property_included(fam, essential)
        res = None
        if rho is not None:
            res = float(np.max(np.abs(pinch(rho, fam) - pinched_essential)))
        labels.append(label)
        included.append(ok)
        residuals.append(res)
    return PropertyLattice(
        essential=essential,
        candidate_labels=tuple(labels),
        included=tuple(included),
        transfer_residuals=tuple(residuals),
    )


@dataclass(frozen=True)
class EventRecord:
    """Outcome of one event-detection query."""

    observable_label: str
    t0: float
    delta_c: float
    distinguishability: float
    epsilon: float
    n_particles: int
    alpha: float
    event_occurred: bool
    outcome_probabilities: dict
    actualized_properties: tuple
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "observable_label": self.observable_label,
            "T0": self.t0,
            "delta_C": self.delta_c,
            "distinguishability": self.distinguishability,
            "epsilon": self.epsilon,
            "N_particles": self.n_particles,
            "alpha": self.alpha,
            "event_occurred": self.event_occurred,
            "outcome_probabilities": {str(k): v for k, v in self.outcome_probabilities.items()},
            "actualized_properties": [str(p) for p in self.actualized_properties],
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _blocked_r(n: int, d: int, m: int, rows_of) -> np.ndarray:
    """The R factor of the (n d, m) matrix whose rows for the clock nodes
    [start, start + b) are ``rows_of(start, b)``, a (b d, m) array, taken by
    QR over blocks of nodes; the matrix itself when it has no fewer columns
    than rows.  Blocks hold about one chunk each, and at least m rows, so that
    each QR step reduces at least as many rows as it carries over in R."""
    tall = m < n * d
    step = max(-(-m // d), _CHUNK_ENTRIES // (m * d)) if tall else n
    r = None
    for start in range(0, n, step):
        z = rows_of(start, min(step, n - start))
        if tall:
            z = np.linalg.qr(z if r is None else np.vstack([r, z]), mode="r")
        r = z
    return r


def _conserved(family: ProjectorFamily, h_system: Observable | None) -> bool:
    """Whether ``family`` is a pair whose members commute with ``h_system``,
    ||[P, h]|| <= 1e-12 max(1, ||h||) in spectral norm, so that P(t) = P."""
    if len(family) != 2:
        return False
    if h_system is None:
        return True
    h, tol = h_system.matrix, 1e-12 * max(1.0, h_system.norm())
    return not any(_norm_exceeds(p @ h - h @ p, tol) for p in family.projectors)


def _off_diagonal_gap(y: np.ndarray, family: ProjectorFamily, n: int, d_sys: int) -> tuple[float, np.ndarray]:
    """den d and the outcome weights ||Z_P||_F^2 for a complete pair of
    constant projectors (``_conserved``).  Then P(t) = P, rho_event is the
    pinching of rho_mod, and their difference is the off-diagonal block
    (I (x) P_1) rho_mod (I (x) P_2) plus its adjoint: d is that block's
    nuclear norm.  With isometries U_a onto the two ranges,
    Y_a = (I (x) U_a^dagger) Y = Q_a R_a, and

        den d = ||Y_1 Y_2^dagger||_* = sum of the singular values of R_1 R_2^dagger,

    while ||Z_a||_F = ||Y_a||_F = ||R_a||_F."""
    lam, u = np.linalg.eigh(family.projectors[0])
    cols = y.shape[1]
    y = y.reshape(n, d_sys, cols)
    rs = []
    for iso in (u[:, lam > 0.5], u[:, lam <= 0.5]):
        iso_h = iso.conj().T
        rs.append(_blocked_r(n, iso.shape[1], cols, lambda s, b: (iso_h @ y[s : s + b]).reshape(-1, cols)))
    weight = np.array([np.vdot(r, r).real for r in rs])
    return float(np.linalg.svd(rs[0] @ rs[1].conj().T, compute_uv=False).sum()), weight


def _pinching_gap(
    y: np.ndarray,
    family: ProjectorFamily,
    h_system: Observable | None,
    t_grid: np.ndarray,
    n: int,
    d_sys: int,
) -> tuple[float, np.ndarray]:
    """den d and the outcome weights ||Z_P||_F^2 for any complete family.
    With Z_P = (I (x) P(t)) Y per member, the family resolves the identity,
    so Y = sum_P Z_P and

        den (rho_mod - rho_event) = Y Y^dagger - sum_P Z_P Z_P^dagger = Z K Z^dagger

    with Z = [Z_P1, Z_P2, ...] and K = (1 1^T - I) (x) I.  Where Z has fewer
    columns than rows, its R factor gives the nonzero spectrum as that of
    R K R^dagger; otherwise Z K Z^dagger is formed.  Z is taken in h's
    eigenbasis V, which changes neither: P(t) = u_t P~ u_t^* there, with
    P~ = V^dagger P V and the d-vector u_t = e^{i lambda t}."""
    nt, members, cols = t_grid.size, len(family), y.shape[1]
    v, lam = _eigenbasis(h_system, d_sys)
    u = np.exp(1j * np.outer(lam, t_grid))[:, :, None]  # u_t as (d, nt, 1), before any BLAS call
    v_h = v.conj().T
    p_e = (family._stack if h_system is None else v_h @ family._stack @ v).reshape(members * d_sys, d_sys)
    y = y.reshape(n, d_sys, cols)
    m = members * cols
    weight = np.zeros(members)

    def rows_of(start: int, b: int) -> np.ndarray:
        block = y[start : start + b]
        if h_system is not None:  # without h, V = I and u_t = 1
            block = (v_h @ block).reshape(b, d_sys, nt, -1) * u.conj()
        w = (p_e @ block.reshape(b, d_sys, cols)).reshape(b, members, d_sys, nt, -1)
        weight[:] += np.square(w.view(float)).reshape(b, members, -1).sum(axis=(0, 2))
        w *= u
        # Z rows (i, a), columns (P, t, k)
        return w.transpose(0, 2, 1, 3, 4).reshape(b * d_sys, m)

    r = _blocked_r(n, d_sys, m, rows_of)
    blocks = r.reshape(-1, members, cols)
    gap = (blocks.sum(axis=1, keepdims=True) - blocks).reshape(-1, m) @ r.conj().T
    spectrum = np.linalg.eigvalsh(gap)
    return float(spectrum[spectrum > 0].sum()), weight


def _event_gap(
    rho: DensityOperator,
    family: ProjectorFamily,
    clock: ClockModel,
    t0: float,
    h_system: Observable | None,
    t_grid: np.ndarray,
) -> tuple[float, np.ndarray]:
    """``distinguishability(rho_mod, rho_event)`` and the outcome probabilities
    of rho in one Heisenberg-frame pass of the window kernel over its Gram factor.

    Y is the factor of the window sandwich: ``rho_mod`` is Y Y^dagger / den,
    den = ||Y||_F^2.  A pair of members that commute with h takes the
    off-diagonal block (``_off_diagonal_gap``), any other family the pinching
    of the whole family (``_pinching_gap``).  Frame rotations are unitary and
    leave the best projector test unchanged, so none is applied.  The outcome
    probabilities are ||(I (x) P(t)) Y||_F^2 / den."""
    n, d_sys = _split_space(rho, clock)
    y = _window_factor(rho, clock, clock._window_mask(t0), [np.eye(d_sys)], None, t_grid)
    den = float(np.vdot(y, y).real)
    if den <= 1e-300:
        raise ZeroProbabilityError("reduction has zero probability")
    if _conserved(family, h_system):
        gap, weight = _off_diagonal_gap(y, family, n, d_sys)
    else:
        gap, weight = _pinching_gap(y, family, h_system, t_grid, n, d_sys)
    probs = weight / den
    if not abs(probs.sum() - 1.0) <= TOL_TRACE + TOL_PROJ:
        raise ArithmeticError(f"pinching changed the trace of the conditioned state: {probs.sum()!r}")
    return gap / den, np.clip(probs, 0.0, 1.0)


def detect_event(
    rho: DensityOperator,
    family: ProjectorFamily,
    clock: ClockModel,
    t0: float,
    n_particles: int,
    alpha: float,
    h_system: Observable | None = None,
    candidates: list[tuple[str, ProjectorFamily]] | None = None,
    t_grid: np.ndarray | None = None,
    observable_label: str = "observable",
) -> EventRecord:
    """Declare an event when the conditioned state and its pinching cannot be
    told apart by any projector test to better than exp(-alpha * N)."""
    # a bool or a fractional count would set eps = exp(-alpha N) for one N and record another
    if isinstance(n_particles, (bool, np.bool_)) or not float(n_particles).is_integer():
        raise ValueError(f"n_particles must be an integer, got {n_particles!r}")
    if n_particles < 1:
        raise ValueError("n_particles must be at least 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    _check_family(rho, family, clock)
    t_grid = clock._t_grid(t_grid)
    # the fused pass holds the factor Y of rho_mod, dense input or factored: where
    # rho_mod would not keep it (a wide factor), the dense states are the smaller objects
    if _keeps_factor(rho, t_grid, 1):
        d, probs = _event_gap(rho, family, clock, t0, h_system, t_grid)
    else:
        # the test is unitarily invariant: both states stay in the Heisenberg frame
        modified = rho_mod(rho, clock, t0, h_system, t_grid, "heisenberg")
        pinched = rho_event(rho, family, clock, t0, h_system, t_grid, "heisenberg")
        d, probs = distinguishability(modified, pinched), None
    eps = math.exp(-alpha * n_particles)
    occurred = d < eps

    outcome_probabilities: dict = {}
    actualized: tuple = ()
    if occurred:
        if probs is None:
            probs = conditional_probabilities(rho, family, clock, t0, h_system, t_grid)
        outcome_probabilities = {lbl: float(p) for lbl, p in zip(family.labels, probs)}
        cand = candidates if candidates is not None else [(observable_label, family)]
        lattice = actualized_properties(family, cand, state=None)
        actualized = tuple(
            lbl for lbl, inc in zip(lattice.candidate_labels, lattice.included) if inc
        )

    try:
        ambiguity = clock_density(clock, t0, t_grid).std()
    except ValueError:
        ambiguity = float("nan")
    return EventRecord(
        observable_label=observable_label,
        t0=float(t0),
        delta_c=float(clock.delta_c),
        distinguishability=float(d),
        epsilon=float(eps),
        n_particles=int(n_particles),
        alpha=float(alpha),
        event_occurred=bool(occurred),
        outcome_probabilities=outcome_probabilities,
        actualized_properties=actualized,
        metadata={"clock_ambiguity_width": ambiguity},
    )
