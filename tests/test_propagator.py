"""The physical-time master equation is solved exactly in the energy basis.

Every check here compares ``master_evolve`` with the closed form
rho_mn(T) = rho_mn(0) exp(-i omega_mn T - s omega_mn^2 (b(T) - b(0))),
evaluated element by element from an independent eigendecomposition.
"""

import cmath
import math

import numpy as np
import pytest

import relclock as rc
from relclock.relational import EmpiricalSpreadRate

import oracles

P_PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


def closed_form(h: np.ndarray, rho0: np.ndarray, T: float, db: float, sign: int = 1) -> np.ndarray:
    lam, v = np.linalg.eigh(h)
    tilde = v.conj().T @ rho0 @ v
    d = lam.size
    out = np.empty_like(tilde)
    for m in range(d):
        for n in range(d):
            w = lam[m] - lam[n]
            out[m, n] = tilde[m, n] * cmath.exp(-1j * w * T - sign * w * w * db)
    return v @ out @ v.conj().T


def _empirical_table():
    # starts before T = 0, so b(0) != 0 and only the increment may enter
    t = np.linspace(-1.0, 5.0, 25)
    return EmpiricalSpreadRate(t_values=t, b_values=2e-3 * (t + 1.0) ** 1.5)


RATE_SOURCES = {
    "accuracy-law": (lambda: rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=2e-2)),
    "empirical-table": _empirical_table,
    "callable": (lambda: (lambda T: 1e-3 * T + 4e-4 * math.sin(T))),
}


@pytest.mark.parametrize("name", sorted(RATE_SOURCES))
def test_random_four_level_matches_closed_form(name):
    rng = np.random.default_rng(41)
    h_mat = oracles.random_hermitian(rng, 4)
    rho_mat = oracles.random_density(rng, 4)
    source = RATE_SOURCES[name]()
    setup = rc.EvolutionSetup(h_system=rc.Observable.from_matrix(h_mat), rate_source=source)
    rho0 = rc.DensityOperator.from_matrix(rho_mat, (4,))
    traj = rc.master_evolve(rho0, setup, 4.0, record_stride=37)
    assert len(traj) > 10
    for t, state in zip(traj.times, traj.states):
        db = setup.accumulated_b(t) - setup.accumulated_b(0.0)
        want = closed_form(h_mat, rho_mat, t, db)
        assert np.max(np.abs(state.matrix - want)) <= 1e-12


def test_single_step_closed_form():
    # one step at constant rate on a diagonal Hamiltonian: rho_01 picks up
    # exp((-2i - 4 rate) dt)
    h = rc.Observable.from_matrix(np.diag([1.0, -1.0]).astype(complex))
    rho0 = rc.DensityOperator.from_matrix(np.array([[0.5, 0.3], [0.3, 0.5]]), (2,))
    dt, rate = 1e-3, 0.05
    setup = rc.EvolutionSetup(h_system=h, rate_source=lambda T: rate * T, dt=dt)
    traj = rc.master_evolve(rho0, setup, dt)
    assert len(traj) == 2
    want01 = 0.3 * np.exp((-2j - rate * 4.0) * dt)
    assert abs(traj.states[-1].matrix[0, 1] - want01) <= 1e-12


def test_matches_offdiag_decay_factor_on_every_recorded_time(h_z):
    law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-2)
    rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
    traj = rc.master_evolve(rho0, rc.EvolutionSetup(h_system=h_z, rate_source=law), 8.0, record_stride=7)
    for t, state in zip(traj.times, traj.states):
        ratio = abs(state.matrix[0, 1]) / 0.5
        assert ratio == pytest.approx(rc.offdiag_decay_factor(2.0, law, t), rel=1e-12)


def test_output_grid_and_metadata(h_z):
    rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
    setup = rc.EvolutionSetup(h_system=h_z, dt=0.1)
    traj = rc.master_evolve(rho0, setup, 1.0, record_stride=3)
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
    assert traj.states[0] is rho0
    assert traj.metadata == {
        "dt": pytest.approx(0.1),
        "sign_convention": 1,
        "rate_source": "none",
        "first_moment_used": False,
    }


def test_anti_dephasing_names_the_failing_time(h_z):
    law = rc.AccuracyLaw(exponent_a=0.5, t_planck=5e-2)
    rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
    setup = rc.EvolutionSetup(h_system=h_z, rate_source=law, sign_convention=-1, dt=0.5)
    with pytest.raises(rc.MasterIntegrationError, match=r"T = 0\.5\b"):
        rc.master_evolve(rho0, setup, 5.0)


@pytest.mark.parametrize("stride", [0, -1])
def test_record_stride_below_one_rejected(h_z, stride):
    rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
    with pytest.raises(ValueError, match="record_stride"):
        rc.master_evolve(rho0, rc.EvolutionSetup(h_system=h_z), 1.0, record_stride=stride)
