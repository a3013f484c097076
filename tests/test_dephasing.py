import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relclock as rc
from relclock.dephasing import SpinEnvironmentModel, _default_system

import oracles


def random_angles(rng, n: int) -> np.ndarray:
    """Bloch angles (theta, phi) of n unlike environment spins."""
    return np.column_stack([rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)])


class TestInterferenceFactor:
    def test_starts_at_one(self):
        model = rc.make_incommensurate_model(5)
        assert rc.interference_factor(model, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_single_spin_closed_form(self):
        model = SpinEnvironmentModel(
            n_env=1,
            couplings=np.array([1.0]),
            system_init=_default_system(),
            env_angles=np.array([[math.pi / 2.0, 0.0]]),
        )
        for t in (0.3, 1.1, 2.9):
            assert rc.interference_factor(model, t) == pytest.approx(math.cos(2.0 * t), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=50.0), st.integers(min_value=1, max_value=8))
    def test_magnitude_bounded_by_one(self, t, n):
        model = rc.make_incommensurate_model(n)
        assert abs(rc.interference_factor(model, t)) <= 1.0 + 1e-12

    def test_polarized_environment_keeps_coherence_magnitude(self):
        # environment spins in coupling eigenstates: no which-path information
        angles = np.zeros((4, 2))
        model = SpinEnvironmentModel(
            n_env=4,
            couplings=np.array([1.0, 1.3, 0.7, 2.1]),
            system_init=_default_system(),
            env_angles=angles,
        )
        for t in (0.5, 1.7, 4.0):
            assert abs(rc.interference_factor(model, t)) == pytest.approx(1.0, abs=1e-12)

    def test_equals_branch_sum_in_amplitude_order(self, rng):
        # z(t) = sum_s |amp_s|^2 e^{2i E_s t}: branch_energies pairs with env_amplitudes
        for n in range(1, 8):
            model = SpinEnvironmentModel(
                n_env=n,
                couplings=rng.uniform(0.2, 3.0, n),
                system_init=_default_system(),
                env_angles=random_angles(rng, n),
            )
            t = rng.uniform(0.0, 10.0, 5)
            weights = np.abs(model.env_amplitudes()) ** 2
            branch_sum = np.exp(2j * np.outer(t, model.branch_energies())) @ weights
            np.testing.assert_allclose(branch_sum, rc.interference_factor(model, t), rtol=0, atol=1e-12)


class TestExactReducedCoherence:
    def test_equals_interference_factor_times_initial(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            model = rc.make_incommensurate_model(n)
            t = float(rng.uniform(0.0, 20.0))
            exact = rc.exact_reduced_coherence(model, t)
            want = rc.interference_factor(model, t) * model.system_init.matrix[1, 0]
            assert abs(exact - want) <= 1e-9

    def test_initial_time_gives_initial_coherence(self):
        model = rc.make_incommensurate_model(6)
        assert rc.exact_reduced_coherence(model, 0.0) == pytest.approx(
            complex(model.system_init.matrix[1, 0]), abs=1e-12
        )

    def test_mixed_system_state(self, rng):
        mixed = rc.DensityOperator.from_matrix(
            np.array([[0.6, 0.25 - 0.05j], [0.25 + 0.05j, 0.4]]), (2,)
        )
        model = rc.make_incommensurate_model(4, system_init=mixed)
        t = 3.3
        exact = rc.exact_reduced_coherence(model, t)
        want = rc.interference_factor(model, t) * mixed.matrix[1, 0]
        assert abs(exact - want) <= 1e-9

    def test_array_of_times_matches_scalar_calls_exactly(self):
        mixed = rc.DensityOperator.from_matrix(
            np.array([[0.6, 0.25 - 0.05j], [0.25 + 0.05j, 0.4]]), (2,)
        )
        for model in (rc.make_incommensurate_model(7), rc.make_incommensurate_model(5, system_init=mixed)):
            t = np.linspace(0.0, 12.0, 37)
            many = rc.exact_reduced_coherence(model, t)
            assert many.shape == t.shape
            assert np.array_equal(many, [rc.exact_reduced_coherence(model, float(x)) for x in t])
        assert isinstance(rc.exact_reduced_coherence(model, np.float64(1.5)), complex)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "make", [rc.make_incommensurate_model, rc.make_factorial_model], ids=["incommensurate", "factorial"]
    )
    def test_unlike_spins_match_dense_register_evolution(self, rng, make, n):
        rho = oracles.random_density(rng, 2)
        angles = random_angles(rng, n)
        model = make(n, system_init=rc.DensityOperator.from_matrix(rho, (2,)), env_angles=angles)
        t = rng.uniform(0.0, 5.0, 4)
        want = [oracles.brute_reduced_coherence(rho, model.couplings, angles, x) for x in t]
        np.testing.assert_allclose(rc.exact_reduced_coherence(model, t), want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rc.interference_factor(model, t) * rho[1, 0], want, rtol=0, atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(rc.ValidationError, match="cap"):
            SpinEnvironmentModel(
                n_env=14,
                couplings=np.ones(14),
                system_init=_default_system(),
                env_angles=np.zeros((14, 2)),
            )


class TestRmsBackground:
    def test_long_time_rms_scales_as_two_to_minus_half_n(self):
        for n in range(4, 13):
            model = rc.make_incommensurate_model(n)
            rms = rc.rms_coherence(model, 1500.0, 1_500_001)
            target = 2.0 ** (-n / 2.0)
            assert abs(rms - target) <= 0.25 * target, (n, rms, target)


class TestRevivals:
    def test_single_spin_period(self):
        model = rc.make_factorial_model(1, base_period=1.0)
        est = rc.revival_time_estimate(model, scan=False)
        # one factor: period pi / g_1 with g_1 = pi / base
        assert est.analytic_period == pytest.approx(math.pi / model.couplings[0], rel=1e-12)
        assert est.analytic_period == pytest.approx(1.0, rel=1e-12)

    def test_three_spin_factorial_period_and_scan(self):
        model = rc.make_factorial_model(3, base_period=1.0)
        est = rc.revival_time_estimate(model)
        assert est.analytic_period == pytest.approx(6.0, rel=1e-12)
        assert abs(rc.interference_factor(model, est.analytic_period) - 1.0) <= 1e-9
        # symmetric polarizations recur in magnitude every half period
        assert est.found
        assert est.scanned_time == pytest.approx(3.0, abs=2 * est.scan_step)

    def test_factorial_period_ratio(self):
        t8 = rc.revival_time_estimate(rc.make_factorial_model(8), scan=False).analytic_period
        t7 = rc.revival_time_estimate(rc.make_factorial_model(7), scan=False).analytic_period
        assert t8 / t7 == pytest.approx(8.0, rel=1e-12)

    def test_harmonic_mode_lcm(self):
        model = rc.make_harmonic_model(4, g=2.0)
        est = rc.revival_time_estimate(model, scan=False)
        # factor periods pi k / g: joint = lcm(1..4) pi / g
        assert est.analytic_period == pytest.approx(12.0 * math.pi / 2.0, rel=1e-12)

    def test_incommensurate_mode_has_no_analytic_period(self):
        with pytest.raises(rc.ValidationError, match="commensurate"):
            rc.revival_time_estimate(rc.make_incommensurate_model(3))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_purity_restored_at_analytic_period(self, n):
        model = rc.make_factorial_model(n)
        period = rc.revival_time_estimate(model, scan=False).analytic_period
        p0 = rc.reduced_system_state(model, 0.0).purity()
        p_rev = rc.reduced_system_state(model, period).purity()
        p_mid = rc.reduced_system_state(model, 0.37 * period).purity()
        assert abs(p_rev - p0) <= 1e-6
        assert p_mid < p0 - 0.05


class TestRevivalSuppression:
    def test_near_ideal_clock_never_suppresses(self):
        model = rc.make_factorial_model(6)
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-44)
        report = rc.revival_suppression(model, law, omega=1.0, planck_per_unit=1e30)
        assert not report.suppressed
        assert report.decay_at_revival > report.background

    def test_large_environment_suppresses(self):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-44)
        n_min = rc.minimal_suppression_n(law, omega=1.0, base_period=1.0, planck_per_unit=1e6)
        model = rc.make_factorial_model(6)
        report = rc.revival_suppression(model, law, omega=1.0, planck_per_unit=1e6)
        assert report.n_min == n_min
        assert n_min > 6
        # at the threshold the decay exponent overtakes (N/2) ln 2
        law_sim = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-6)
        for n, should in ((n_min, True), (n_min - 1, False)):
            decay = rc.offdiag_decay_factor(1.0, law_sim, math.factorial(n))
            assert (decay < 2.0 ** (-n / 2.0)) == should

    def test_minimal_n_monotone_in_planck_time(self):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-44)
        n_mins = [
            rc.minimal_suppression_n(law, omega=1.0, base_period=1.0, planck_per_unit=b)
            for b in (1e4, 1e6, 1e8)
        ]
        # larger bridge = smaller Planck time in simulation units = better clock
        assert n_mins[0] <= n_mins[1] <= n_mins[2]

    def test_minimal_n_grows_as_exponent_shrinks(self):
        # robustness scaling: a more conservative accuracy exponent only
        # rescales the particle threshold like 1/a
        n0 = rc.minimal_suppression_n(
            rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-44),
            omega=1.0,
            base_period=1.0,
            planck_per_unit=1e6,
        )
        for eps in (1.0 / 6.0, 1.0 / 12.0):
            n_eps = rc.minimal_suppression_n(
                rc.AccuracyLaw(exponent_a=eps, t_planck=1e-44),
                omega=1.0,
                base_period=1.0,
                planck_per_unit=1e6,
            )
            assert n_eps > n0
            ratio = n_eps * 3.0 * eps / n0
            assert 0.5 <= ratio <= 2.0

    def test_report_serialization(self):
        model = rc.make_factorial_model(4)
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-44)
        report = rc.revival_suppression(model, law, omega=1.0, planck_per_unit=1e6)
        payload = report.as_dict()
        assert set(payload) == {"N", "T_revival", "D_rev", "background", "suppressed", "N_min"}
        assert payload["N"] == 4
        assert payload["T_revival"] == pytest.approx(24.0, rel=1e-12)


class TestPurityBounds:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=30.0))
    def test_reduced_purity_never_exceeds_one(self, t):
        model = rc.make_incommensurate_model(5)
        p = rc.reduced_system_state(model, t).purity()
        assert p <= 1.0 + 1e-10
