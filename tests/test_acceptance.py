"""End-to-end acceptance checks.

Each test enforces one acceptance criterion at its stated tolerance and
runtime budget, and prints a single pass/fail line (visible with ``pytest -s``
or in the failure report).
"""

import math
import time

import numpy as np
import pytest

import relclock as rc
from relclock import cli, fixtures
from relclock.relational import EmpiricalSpreadRate

import oracles

P_PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


class _Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and elapsed >= self.seconds:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.seconds}s runtime budget: {elapsed:.2f}s"
            )
        return False


def _random_four_level(rng):
    h_raw = oracles.random_hermitian(rng, 4)
    h_raw *= 1.25 / np.max(np.abs(np.linalg.eigvalsh(h_raw)))
    h = rc.Observable.from_matrix(h_raw)
    rho0 = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
    return h, rho0


def test_criterion_01_unitary_limit():
    with _Budget(1, "unitary limit (delta clock + zero rate)", 5.0):
        rng = np.random.default_rng(42)
        clock = rc.build_ideal_clock(1204, tau=12.0)
        t_grid = clock.default_t_grid()
        t_values = [2.5, 5.0, 7.5, 10.0]
        for _ in range(2):
            h, rho0 = _random_four_level(rng)
            for t_value in t_values:
                mix = rc.physical_time_state(rho0, h, rc.clock_density(clock, t_value, t_grid))
                want = rc.unitary_evolve(rho0, h, t_value)
                assert np.max(np.abs(mix.matrix - want.matrix)) <= 1e-8

            master = rc.master_evolve(
                rho0, rc.EvolutionSetup(h_system=h, dt=0.004), 10.0, record_stride=25
            )
            for t_value in t_values:
                got = master.state_at(t_value, atol=1e-9)
                want = rc.unitary_evolve(rho0, h, t_value)
                assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-8


def test_criterion_02_decay_law_reproduction(tmp_path):
    with _Budget(2, "fundamental decay exponent and 2/3 slope", 10.0):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-2)
        h_z = rc.Observable.from_matrix(rc.SIGMA_Z)
        rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
        traj = rc.master_evolve(rho0, rc.EvolutionSetup(h_system=h_z, rate_source=law), 8.0)
        for t_value in (1.0, 2.0, 4.0, 8.0):
            got = math.log(abs(traj.state_at(t_value).matrix[0, 1]) / 0.5)
            want = -4.0 * law.t_planck ** (4.0 / 3.0) * t_value ** (2.0 / 3.0)
            assert abs(got - want) <= 1e-6 * abs(want)

        cfg = cli.load_config(cli.preset_path("qubit_decay"))
        cli.run_config(cfg, tmp_path)
        lines = (tmp_path / "q00_master-evolve.csv").read_text().splitlines()[2:]
        rows = np.array([[float(x) for x in line.split(",")] for line in lines])
        t, mag = rows[:, 0], np.hypot(rows[:, 3], rows[:, 4])
        keep = t > 0.5
        slope = np.polyfit(np.log(t[keep]), np.log(-np.log(mag[keep] / mag[0])), 1)[0]
        assert abs(slope - 2.0 / 3.0) <= 0.02 * (2.0 / 3.0)


def test_criterion_03_conditional_probability_oracle():
    with _Budget(3, "clock-conditioned probability vs brute force", 30.0):
        rng = np.random.default_rng(7)
        clock = rc.build_free_particle_clock(64, mass=25.0, sigma0=0.45, delta_c=0.3, tau=4.0)
        h_z = rc.Observable.from_matrix(rc.SIGMA_Z)
        t_grid = np.linspace(0.0, clock.tau, 41)
        for _ in range(3):
            rho = rc.DensityOperator.from_matrix(oracles.random_density(rng, 128), (64, 2))
            got = rc.conditional_probability(rho, P_PLUS, clock, 1.5, h_system=h_z, t_grid=t_grid)
            want = oracles.brute_conditional_probability(
                rho.matrix, P_PLUS, clock.window_projector(1.5),
                clock.h_clock.matrix, h_z.matrix, t_grid,
            )
            assert abs(got - want) <= 1e-9

        family = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_X))
        for _ in range(50):
            rho = rc.DensityOperator.from_matrix(oracles.random_density(rng, 128), (64, 2))
            vals = rc.conditional_probabilities(rho, family, clock, 1.5, h_system=h_z, t_grid=t_grid)
            assert abs(vals.sum() - 1.0) <= 1e-9


def _compare_master_with_mixture(h, rho0_vec, t_anchor, t_checks):
    t_grid = np.linspace(0.0, 6.0, 2401)
    widths = {T: math.sqrt(0.02**2 + 1.2e-4 * T) for T in np.arange(0.5, 5.01, 0.25)}
    densities = [rc.gaussian_clock_density(T, t_grid, w) for T, w in widths.items()]
    table = EmpiricalSpreadRate.from_densities(densities)
    shifted = EmpiricalSpreadRate(t_values=table.t_values - t_anchor, b_values=table.b_values)

    rho0 = rc.DensityOperator.from_vector(rho0_vec, (len(rho0_vec),))
    start = rc.physical_time_state(rho0, h, rc.gaussian_clock_density(t_anchor, t_grid, widths[t_anchor]))
    setup = rc.EvolutionSetup(h_system=h, rate_source=shifted)
    master = rc.master_evolve(start, setup, max(t_checks) - t_anchor, record_stride=10)

    v = h.eigenvectors
    for t_value in t_checks:
        mixture = rc.physical_time_state(
            rho0, h, rc.gaussian_clock_density(t_value, t_grid, widths[t_value])
        )
        got = v.conj().T @ master.state_at(t_value - t_anchor, atol=1e-9).matrix @ v
        want = v.conj().T @ mixture.matrix @ v
        d = h.matrix.shape[0]
        for i in range(d):
            for j in range(d):
                if i != j:
                    assert abs(got[i, j] - want[i, j]) <= 1e-3 * abs(want[i, j])


def test_criterion_04_master_equation_matches_direct_integral():
    with _Budget(4, "master equation vs reading-density mixture", 30.0):
        h_z = rc.Observable.from_matrix(rc.SIGMA_Z)
        _compare_master_with_mixture(h_z, np.array([1.0, 1.0]), 0.5, [1.5, 2.5, 3.5, 4.5])

        rng = np.random.default_rng(11)
        basis = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        h3 = rc.Observable.from_matrix(basis @ np.diag([0.0, 1.3, 3.1]) @ basis.conj().T)
        psi = basis @ np.array([1.0, 1.0 + 0.2j, 0.8 - 0.1j])
        _compare_master_with_mixture(h3, psi, 0.5, [1.5, 2.5, 3.5, 4.5])


def test_criterion_05_three_spin_property_lattice():
    with _Budget(5, "three-spin property lattice", 1.0):
        essential = fixtures.three_spin_essential_family()
        assert rc.property_included(fixtures.spin_up_family(0), essential)
        assert rc.property_included(fixtures.opposite_symmetric_family(), essential)
        assert not rc.property_included(fixtures.spin_up_family(1), essential)
        lattice = rc.actualized_properties(
            essential, fixtures.three_spin_candidates(), state=fixtures.three_spin_state()
        )
        assert lattice.included == (True, True, False)
        assert lattice.transfer_residuals[0] <= 1e-9
        assert lattice.transfer_residuals[1] <= 1e-9


def test_criterion_06_dephasing_scalings():
    with _Budget(6, "interference scalings and revivals", 60.0):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            model = rc.make_incommensurate_model(n)
            t = float(rng.uniform(0.0, 30.0))
            exact = rc.exact_reduced_coherence(model, t)
            want = rc.interference_factor(model, t) * model.system_init.matrix[1, 0]
            assert abs(exact - want) <= 1e-9

        for n in range(4, 13):
            rms = rc.rms_coherence(rc.make_incommensurate_model(n), 1500.0, 1_500_001)
            target = 2.0 ** (-n / 2.0)
            assert abs(rms - target) <= 0.25 * target

        for n in range(2, 7):
            model = rc.make_factorial_model(n)
            period = rc.revival_time_estimate(model, scan=False).analytic_period
            assert period == pytest.approx(math.factorial(n), rel=1e-12)
            assert abs(rc.interference_factor(model, period) - 1.0) <= 1e-9
            p0 = rc.reduced_system_state(model, 0.0).purity()
            assert abs(rc.reduced_system_state(model, period).purity() - p0) <= 1e-6


def test_criterion_07_undecidability_threshold():
    with _Budget(7, "event threshold and best-projector test", 10.0):
        clock = rc.build_ideal_clock(48, tau=4.0)
        family = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_Z))
        t0 = 10 * clock.dx

        coherent = clock.rho0.tensor(rc.DensityOperator.from_matrix(P_PLUS, (2,)))
        rec = rc.detect_event(coherent, family, clock, t0, n_particles=10, alpha=0.3)
        assert not rec.event_occurred

        model = rc.make_incommensurate_model(10)
        dephased = clock.rho0.tensor(rc.reduced_system_state(model, 7.7))
        rec = rc.detect_event(dephased, family, clock, t0, n_particles=10, alpha=0.3)
        assert rec.event_occurred
        assert rec.distinguishability < rec.epsilon == pytest.approx(math.exp(-3.0))

        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
            b = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
            d = rc.distinguishability(a, b)
            assert abs(d - oracles.brute_max_projector_gap(a.matrix, b.matrix)) <= 1e-10
            half_norm = 0.5 * np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum()
            assert abs(d - half_norm) <= 1e-10


def test_criterion_08_robustness_scaling():
    with _Budget(8, "particle threshold scales like 1/(3 eps)", 10.0):
        bridge = 1e6
        n0 = rc.minimal_suppression_n(
            rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-44),
            omega=1.0, base_period=1.0, planck_per_unit=bridge,
        )
        for eps in (1.0 / 6.0, 1.0 / 12.0):
            n_eps = rc.minimal_suppression_n(
                rc.AccuracyLaw(exponent_a=eps, t_planck=1e-44),
                omega=1.0, base_period=1.0, planck_per_unit=bridge,
            )
            ratio = n_eps * 3.0 * eps / n0
            assert 0.5 <= ratio <= 2.0


def test_criterion_09_quasi_projector_defect():
    with _Budget(9, "quasi-projector defect vs clock quality", 10.0):
        h_x = rc.Observable.from_matrix(rc.SIGMA_X)
        p_up = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

        ideal = rc.build_ideal_clock(48, tau=4.0)
        f = rc.effective_projector(p_up, ideal, 10 * ideal.dx, h_system=h_x)
        _, eta = rc.quasi_projector_defect(f)
        assert eta <= 1e-8

        etas = []
        for sigma0 in (0.2, 0.35, 0.5, 0.75, 1.0):
            clock = rc.build_free_particle_clock(256, mass=200.0, sigma0=sigma0, delta_c=0.25, tau=6.0)
            f = rc.effective_projector(p_up, clock, 2.0, h_system=h_x)
            etas.append(rc.quasi_projector_defect(f)[1])
        assert all(e > 0 for e in etas)
        assert all(b > a for a, b in zip(etas, etas[1:]))


def test_criterion_10_history_normalization():
    with _Budget(10, "exhaustive two-step histories sum to one", 5.0):
        rng = np.random.default_rng(23)
        clock = rc.build_free_particle_clock(96, mass=30.0, sigma0=0.4, delta_c=0.35, tau=4.0)
        h_z = rc.Observable.from_matrix(rc.SIGMA_Z)
        fam_x = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_X)).projectors
        fam_z = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_Z)).projectors
        t_grid = np.linspace(0.0, clock.tau, 41)
        rho = clock.rho0.tensor(
            rc.DensityOperator.from_matrix(oracles.random_density(rng, 2), (2,))
        )
        total = sum(
            rc.history_probability(rho, clock, [(p1, 1.0), (p2, 2.0)], h_system=h_z, t_grid=t_grid)
            for p1 in fam_x
            for p2 in fam_z
        )
        assert abs(total - 1.0) <= 1e-8
