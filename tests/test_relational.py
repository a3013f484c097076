import math

import numpy as np
import pytest

import relclock as rc
from relclock.relational import EmpiricalSpreadRate

import oracles
from inputs import FORMS, entangled_state, product_state, qubit_state

I2 = np.eye(2, dtype=complex)
P_UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
P_PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


class TestConditionalProbability:
    def test_identity_projector_gives_one(self, ideal_clock, h_z, rng):
        rho = ideal_clock.rho0.tensor(qubit_state(rng))
        t0 = 16 * ideal_clock.dx
        p = rc.conditional_probability(rho, I2, ideal_clock, t0, h_system=h_z)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_ideal_clock_recovers_born_rule(self, ideal_clock, h_z, rng):
        rho_sys = qubit_state(rng)
        rho = ideal_clock.rho0.tensor(rho_sys)
        for t0 in (0.5, 1.0, 2.5):
            t0 = round(t0 / ideal_clock.dx) * ideal_clock.dx
            p = rc.conditional_probability(rho, P_PLUS, ideal_clock, t0, h_system=h_z)
            born = rc.unitary_evolve(rho_sys, h_z, t0).expectation(P_PLUS)
            assert p == pytest.approx(born, abs=1e-10)

    @pytest.mark.parametrize("form", FORMS)
    def test_matches_brute_force_grid_oracle(self, free_clock, h_z, rng, form):
        rho = product_state(free_clock, qubit_state(rng, form), form)
        t_grid = np.linspace(0.0, free_clock.tau, 41)
        got = rc.conditional_probability(rho, P_PLUS, free_clock, 1.5, h_system=h_z, t_grid=t_grid)
        want = oracles.brute_conditional_probability(
            rho.matrix,
            P_PLUS,
            free_clock.window_projector(1.5),
            free_clock.h_clock.matrix,
            h_z.matrix,
            t_grid,
        )
        assert got == pytest.approx(want, abs=1e-9)

    def test_complete_family_sums_to_one_both_clocks(self, ideal_clock, free_clock, h_z, rng):
        fam = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_X))
        for clock in (ideal_clock, free_clock):
            full = oracles.random_density(rng, clock.n * 2)
            rho = rc.DensityOperator.from_matrix(full, (clock.n, 2))
            t0 = round(1.0 / clock.dx) * clock.dx if clock.kind == "ideal" else 1.0
            vals = rc.conditional_probabilities(rho, fam, clock, t0, h_system=h_z)
            assert vals.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_projector_on_clock_factor_rejected(self, ideal_clock, h_z, rng):
        rho = ideal_clock.rho0.tensor(qubit_state(rng))
        bad = np.kron(np.diag(np.r_[1.0, np.zeros(ideal_clock.n - 1)]).astype(complex), I2)
        with pytest.raises(rc.ValidationError, match="clock factor"):
            rc.conditional_probability(rho, bad, ideal_clock, 1.0, h_system=h_z)

    def test_unreachable_reading_raises(self, free_clock, h_z, rng):
        rho = free_clock.rho0.tensor(qubit_state(rng))
        with pytest.raises(rc.UnreachableReadingError):
            rc.conditional_probability(rho, P_PLUS, free_clock, 60.0, h_system=h_z)

    @pytest.mark.parametrize("form", FORMS)
    def test_entangled_d4_family_matches_brute_force(self, small_clock, rng, form):
        clock = small_clock
        rho = entangled_state(rng, clock, 4, form)
        h_sys = oracles.random_hermitian(rng, 4)
        u = oracles.random_unitary(rng, 4)
        members = [np.outer(u[:, k], u[:, k].conj()) for k in range(4)]
        fam = rc.ProjectorFamily(labels=(0, 1, 2, 3), projectors=tuple(members))
        t_grid = np.linspace(0.0, clock.tau, 17)
        got = rc.conditional_probabilities(
            rho, fam, clock, 1.0, h_system=rc.Observable.from_matrix(h_sys), t_grid=t_grid
        )
        for q, value in zip(members, got):
            want = oracles.brute_conditional_probability(
                rho.matrix, q, clock.window_projector(1.0), clock.h_clock.matrix, h_sys, t_grid
            )
            assert value == pytest.approx(want, abs=1e-9)


class TestPhysicalTimeState:
    def test_delta_density_reproduces_unitary(self, h_z, rng):
        rho0 = qubit_state(rng)
        t_grid = np.linspace(0.0, 4.0, 401)
        traj = rc.newtonian_trajectory(rho0, h_z, t_grid)
        density = rc.delta_clock_density(2.0, t_grid)
        got = rc.physical_time_state(traj, density)
        want = rc.unitary_evolve(rho0, h_z, 2.0)
        np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-12)

    def test_trivial_dynamics_is_constant(self, rng):
        rho0 = qubit_state(rng)
        h0 = rc.Observable.from_matrix(np.zeros((2, 2)))
        t_grid = np.linspace(0.0, 4.0, 401)
        traj = rc.newtonian_trajectory(rho0, h0, t_grid)
        for t0 in (1.0, 2.0, 3.0):
            got = rc.physical_time_state(traj, rc.gaussian_clock_density(t0, t_grid, 0.3))
            np.testing.assert_allclose(got.matrix, rho0.matrix, atol=1e-12)

    def test_gaussian_width_sets_coherence_loss(self, h_z):
        # off-diagonal shrinks by the Gaussian characteristic function at
        # the Bohr frequency 2: |rho01(T)| = |rho01(0)| exp(-2 s^2)
        rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
        t_grid = np.linspace(0.0, 8.0, 3201)
        traj = rc.newtonian_trajectory(rho0, h_z, t_grid)
        for s in (0.1, 0.25, 0.4):
            got = rc.physical_time_state(traj, rc.gaussian_clock_density(4.0, t_grid, s))
            assert abs(got.matrix[0, 1]) == pytest.approx(0.5 * math.exp(-2.0 * s**2), rel=1e-5)

    def test_purity_nonincreasing_in_width(self, h_z):
        rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
        t_grid = np.linspace(0.0, 8.0, 3201)
        traj = rc.newtonian_trajectory(rho0, h_z, t_grid)
        purities = [
            rc.physical_time_state(traj, rc.gaussian_clock_density(4.0, t_grid, s)).purity()
            for s in (0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(b < a for a, b in zip(purities, purities[1:]))
        assert all(p <= 1.0 + 1e-12 for p in purities)

    def test_grid_mismatch_rejected(self, h_z, rng):
        traj = rc.newtonian_trajectory(qubit_state(rng), h_z, np.linspace(0.0, 4.0, 101))
        density = rc.gaussian_clock_density(2.0, np.linspace(0.0, 4.0, 100), 0.3)
        with pytest.raises(rc.GridMismatchError):
            rc.physical_time_state(traj, density)


class TestMasterEvolve:
    def test_unitary_limit_matches_unitary_evolve(self, rng):
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 4))
        rho0 = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
        traj = rc.master_evolve(rho0, rc.EvolutionSetup(h_system=h), 10.0, record_stride=100)
        for t, state in zip(traj.times[1:], traj.states[1:]):
            want = rc.unitary_evolve(rho0, h, t)
            assert np.max(np.abs(state.matrix - want.matrix)) <= 1e-8

    def test_eigenbasis_closed_form(self, h_z):
        # diagonal constant, off-diagonal decays as exp(-omega^2 b(T))
        law = rc.AccuracyLaw(exponent_a=0.5, t_planck=2e-3)
        rho0 = rc.DensityOperator.from_matrix(
            np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]), (2,)
        )
        traj = rc.master_evolve(rho0, rc.EvolutionSetup(h_system=h_z, rate_source=law), 6.0)
        for t, state in [(traj.times[k], traj.states[k]) for k in (150, 600, len(traj) - 1)]:
            assert state.matrix[0, 0].real == pytest.approx(0.6, abs=1e-8)
            want = abs(rho0.matrix[0, 1]) * math.exp(-4.0 * law.accumulated_spread(t))
            assert abs(state.matrix[0, 1]) == pytest.approx(want, rel=1e-8)

    def test_fundamental_rate_accumulates_paper_exponent(self, h_z):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-2)
        rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
        traj = rc.master_evolve(rho0, rc.EvolutionSetup(h_system=h_z, rate_source=law), 8.0)
        omega_sq = 4.0
        for t in (2.0, 5.0, 8.0):
            got = math.log(abs(traj.state_at(t).matrix[0, 1]) / 0.5)
            want = -omega_sq * law.t_planck ** (4.0 / 3.0) * t ** (2.0 / 3.0)
            assert got == pytest.approx(want, rel=1e-6)

    def test_trace_preserved_every_step(self, h_x):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=5e-2)
        rho0 = rc.DensityOperator.from_matrix(np.diag([0.9, 0.1]).astype(complex), (2,))
        traj = rc.master_evolve(rho0, rc.EvolutionSetup(h_system=h_x, rate_source=law), 4.0)
        for state in traj.states:
            assert abs(state.matrix.trace().real - 1.0) <= 1e-9

    def test_sign_convention_toggle_grows_coherence(self, h_z):
        law = rc.AccuracyLaw(exponent_a=0.5, t_planck=1e-3)
        rho0 = rc.DensityOperator.from_matrix(
            np.array([[0.5, 0.1], [0.1, 0.5]]), (2,)
        )
        fwd = rc.master_evolve(rho0, rc.EvolutionSetup(h_system=h_z, rate_source=law), 2.0)
        rev = rc.master_evolve(
            rho0, rc.EvolutionSetup(h_system=h_z, rate_source=law, sign_convention=-1), 2.0
        )
        assert abs(fwd.states[-1].matrix[0, 1]) < 0.1 < abs(rev.states[-1].matrix[0, 1])

    def test_positivity_failure_reported(self, h_z):
        # an anti-dephasing run on a maximally coherent state cannot stay positive
        law = rc.AccuracyLaw(exponent_a=0.5, t_planck=5e-2)
        rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
        with pytest.raises(rc.MasterIntegrationError):
            rc.master_evolve(
                rho0, rc.EvolutionSetup(h_system=h_z, rate_source=law, sign_convention=-1), 5.0
            )

    def test_empirical_rate_from_density_moments(self, h_z):
        # densities with linearly growing variance feed the same decay as the
        # physical-time mixture
        t_grid = np.linspace(0.0, 10.0, 2001)
        widths = {T: math.sqrt(0.02**2 + 0.004 * T) for T in np.arange(0.5, 9.0, 0.5)}
        densities = [rc.gaussian_clock_density(T, t_grid, w) for T, w in widths.items()]
        rate = EmpiricalSpreadRate.from_densities(densities)
        for T, w in widths.items():
            assert rate.accumulated(T) == pytest.approx(0.5 * w**2, rel=1e-4)


class TestOffdiagDecay:
    def test_zero_time(self):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-3)
        assert rc.offdiag_decay_factor(1.0, law, 0.0) == 1.0

    def test_closed_form_value(self):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-3)
        assert rc.offdiag_decay_factor(1.0, law, 1.0) == pytest.approx(
            math.exp(-1e-4), rel=1e-12
        )

    def test_matches_master_evolution(self, h_z):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-2)
        rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
        traj = rc.master_evolve(rho0, rc.EvolutionSetup(h_system=h_z, rate_source=law), 4.0)
        ratio = abs(traj.state_at(4.0).matrix[0, 1]) / 0.5
        assert ratio == pytest.approx(rc.offdiag_decay_factor(2.0, law, 4.0), rel=1e-6)


class TestReduceState:
    def test_identity_event_is_noop(self, ideal_clock, h_z, rng):
        rho = ideal_clock.rho0.tensor(qubit_state(rng))
        out = rc.reduce_state(rho, ideal_clock, [(I2, None)], h_system=h_z)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-10)

    def test_ideal_clock_rank_one_collapse(self, ideal_clock):
        # system frozen: the sandwich is the textbook projection
        psi = np.array([0.8, 0.6], dtype=complex)
        rho = ideal_clock.rho0.tensor(rc.DensityOperator.from_vector(psi, (2,)))
        t0 = 10 * ideal_clock.dx
        out = rc.reduce_state(rho, ideal_clock, [(P_UP, t0)])
        sys_part = rc.partial_trace(out, [1])
        want = P_UP @ np.outer(psi, psi.conj()) @ P_UP
        np.testing.assert_allclose(sys_part.matrix, want / want.trace(), atol=1e-10)

    @pytest.mark.parametrize("form", FORMS)
    def test_two_windows_match_brute_force(self, free_clock, h_z, rng, form):
        # conjunction of two overlapping reading windows plus a system value;
        # disjoint windows would make the sandwich identically zero
        rho = product_state(free_clock, qubit_state(rng, form), form)
        t_grid = np.linspace(0.0, free_clock.tau, 33)
        events = [(P_UP, 1.5), (None, 1.8)]
        got = rc.reduce_state(rho, free_clock, events, h_system=h_z, t_grid=t_grid)
        want = oracles.brute_reduce_state(
            rho.matrix,
            events,
            free_clock.window_projector,
            free_clock.h_clock.matrix,
            h_z.matrix,
            t_grid,
        )
        np.testing.assert_allclose(got.matrix, want, atol=1e-9)

    @pytest.mark.parametrize("form", FORMS)
    def test_window_delta_window_and_two_projectors_match_brute_force(self, small_clock, rng, form):
        # the two windows intersect in two grid nodes; the projectors commute
        # and multiply to a rank-one projector
        clock = small_clock
        rho = entangled_state(rng, clock, 4, form)
        h_sys = oracles.random_hermitian(rng, 4)
        u = oracles.random_unitary(rng, 4)
        p1 = u @ np.diag([1.0, 1.0, 0.0, 0.0]) @ u.conj().T
        p2 = u @ np.diag([1.0, 0.0, 1.0, 0.0]) @ u.conj().T
        delta_window = np.diag(((clock.x >= 0.9) & (clock.x <= 1.5)).astype(complex))
        windows = {1.0: clock.window_projector(1.0), 1.2: delta_window}
        t_grid = np.linspace(0.0, clock.tau, 17)
        events = [(p1, 1.0), rc.ReductionEvent(q_proj=p2, t0=1.2, delta=0.3)]
        got = rc.reduce_state(
            rho, clock, events, h_system=rc.Observable.from_matrix(h_sys), t_grid=t_grid
        )
        want = oracles.brute_reduce_state(
            rho.matrix, [(p1, 1.0), (p2, 1.2)], windows.get, clock.h_clock.matrix, h_sys, t_grid
        )
        np.testing.assert_allclose(got.matrix, want, atol=1e-9)

    @pytest.mark.parametrize("form", FORMS)
    def test_projector_only_reduction_matches_brute_force(self, small_clock, rng, form):
        clock = small_clock
        rho = entangled_state(rng, clock, 4, form)
        h_sys = oracles.random_hermitian(rng, 4)
        u = oracles.random_unitary(rng, 4)
        p1 = u @ np.diag([1.0, 1.0, 1.0, 0.0]) @ u.conj().T
        p2 = u @ np.diag([0.0, 1.0, 1.0, 1.0]) @ u.conj().T
        t_grid = np.linspace(0.0, clock.tau, 17)
        events = [(p1, None), (p2, None)]
        got = rc.reduce_state(
            rho, clock, events, h_system=rc.Observable.from_matrix(h_sys), t_grid=t_grid
        )
        want = oracles.brute_reduce_state(
            rho.matrix, events, None, clock.h_clock.matrix, h_sys, t_grid
        )
        np.testing.assert_allclose(got.matrix, want, atol=1e-9)

    def test_window_without_grid_nodes_raises(self):
        # a window a fifth of the grid spacing (tau / 44) wide, centred between two nodes
        clock = rc.build_ideal_clock(48, tau=4.0, delta_c=0.1 * 4.0 / 44)
        rho = clock.rho0.tensor(rc.DensityOperator.from_vector([0.6, 0.8], (2,)))
        t0 = 10.5 * clock.dx
        with pytest.raises(rc.UnreachableReadingError):
            rc.conditional_probability(rho, P_UP, clock, t0)
        with pytest.raises(rc.ZeroProbabilityError):
            rc.reduce_state(rho, clock, [(P_UP, t0)])
        with pytest.raises(rc.ZeroProbabilityError):
            rc.reduce_state(rho, clock, [rc.ReductionEvent(q_proj=None, t0=t0, delta=0.1 * clock.dx)])

    def test_noncommuting_projectors_rejected(self, ideal_clock, h_z, rng):
        rho = ideal_clock.rho0.tensor(qubit_state(rng))
        with pytest.raises(rc.ValidationError, match="commute"):
            rc.reduce_state(rho, ideal_clock, [(P_UP, 1.0), (P_PLUS, 2.0)], h_system=h_z)

    def test_zero_probability_reduction(self, ideal_clock):
        rho = ideal_clock.rho0.tensor(rc.DensityOperator.from_vector([0.0, 1.0], (2,)))
        with pytest.raises(rc.ZeroProbabilityError):
            rc.reduce_state(rho, ideal_clock, [(P_UP, 10 * ideal_clock.dx)])


class TestHistoryProbability:
    def test_single_event_equals_conditional(self, ideal_clock, h_z, rng):
        rho = ideal_clock.rho0.tensor(qubit_state(rng))
        t0 = 12 * ideal_clock.dx
        a = rc.history_probability(rho, ideal_clock, [(P_PLUS, t0)], h_system=h_z)
        b = rc.conditional_probability(rho, P_PLUS, ideal_clock, t0, h_system=h_z)
        assert a == pytest.approx(b, abs=1e-12)

    def test_exhaustive_two_step_histories_sum_to_one(self, free_clock, h_z, rng):
        rho = free_clock.rho0.tensor(qubit_state(rng))
        fam_x = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_X)).projectors
        fam_z = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_Z)).projectors
        t_grid = np.linspace(0.0, free_clock.tau, 41)
        total = 0.0
        for p1 in fam_x:
            for p2 in fam_z:
                total += rc.history_probability(
                    rho, free_clock, [(p1, 1.0), (p2, 2.0)], h_system=h_z, t_grid=t_grid
                )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_ideal_clock_two_time_lueders(self, ideal_clock, h_x, rng):
        rho_sys = qubit_state(rng)
        rho = ideal_clock.rho0.tensor(rho_sys)
        t1 = 10 * ideal_clock.dx
        t2 = 25 * ideal_clock.dx
        got = rc.history_probability(rho, ideal_clock, [(P_UP, t1), (P_UP, t2)], h_system=h_x)
        u1 = rc.states.evolution_operator(h_x, t1)
        r1 = u1 @ rho_sys.matrix @ u1.conj().T
        p1 = (P_UP @ r1).trace().real
        u21 = rc.states.evolution_operator(h_x, t2 - t1)
        r2 = u21 @ (P_UP @ r1 @ P_UP / p1) @ u21.conj().T
        p2 = (P_UP @ r2).trace().real
        assert got == pytest.approx(p1 * p2, abs=1e-10)

    def test_out_of_order_readings_rejected(self, ideal_clock, h_z, rng):
        rho = ideal_clock.rho0.tensor(qubit_state(rng))
        with pytest.raises(ValueError, match="ordered"):
            rc.history_probability(rho, ideal_clock, [(P_UP, 2.0), (P_UP, 1.0)], h_system=h_z)


class TestQuasiProjector:
    def test_exact_projector_rank_three(self):
        f = np.diag([1.0, 1.0, 1.0, 0.0, 0.0]).astype(complex)
        n, eta = rc.quasi_projector_defect(f)
        assert n == pytest.approx(3.0, abs=1e-12)
        assert eta == pytest.approx(0.0, abs=1e-12)

    def test_half_identity(self):
        n, eta = rc.quasi_projector_defect(0.5 * I2)
        assert n == pytest.approx(1.0, abs=1e-12)
        assert eta == pytest.approx(0.5, abs=1e-12)

    def test_ideal_clock_sandwich_is_exact(self, ideal_clock, h_x):
        f = rc.effective_projector(P_UP, ideal_clock, 10 * ideal_clock.dx, h_system=h_x)
        _, eta = rc.quasi_projector_defect(f)
        assert eta <= 1e-8

    def test_free_clock_defect_grows_with_width(self, h_x):
        etas = []
        for sigma0 in (0.2, 0.35, 0.5, 0.75, 1.0):
            clock = rc.build_free_particle_clock(
                256, mass=200.0, sigma0=sigma0, delta_c=0.25, tau=6.0
            )
            f = rc.effective_projector(P_UP, clock, 2.0, h_system=h_x)
            etas.append(rc.quasi_projector_defect(f)[1])
        assert all(e > 0 for e in etas)
        assert all(b > a for a, b in zip(etas, etas[1:]))

    def test_spectrum_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="spectrum"):
            rc.quasi_projector_defect(np.diag([1.5, 0.0]).astype(complex))


class TestTrajectoryCsv:
    def test_round_trip_columns(self, tmp_path, h_z, rng):
        rho0 = qubit_state(rng)
        traj = rc.newtonian_trajectory(rho0, h_z, np.linspace(0.0, 1.0, 11))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[1].split(",")
        assert header[0] == "T"
        assert header[1] == "re_0_0" and header[2] == "im_0_0"
        first = [float(x) for x in lines[2].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(rho0.matrix[0, 0].real, abs=0)
