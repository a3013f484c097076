import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import relclock as rc

import oracles
from inputs import FORMS, product_state, qubit_state


class TestAccuracyLaw:
    def test_paper_scale_bound(self):
        # a = 1/3, Planck time 1e-44 s, one second elapsed: 10^(-88/3) s
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-44)
        assert law.delta_t(1.0) == pytest.approx(4.641588833612779e-30, rel=1e-12)

    def test_zero_elapsed_time(self):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-44)
        assert law.delta_t(0.0) == 0.0

    def test_exponent_one_is_elapsed_time(self):
        law = rc.AccuracyLaw(exponent_a=1.0, t_planck=1e-10)
        for t in (0.5, 2.0, 7.0):
            assert law.delta_t(t) == pytest.approx(t, rel=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rc.AccuracyLaw(exponent_a=0.0, t_planck=1e-3)
        with pytest.raises(ValueError):
            rc.AccuracyLaw(exponent_a=0.5, t_planck=0.0)
        with pytest.raises(ValueError, match="t_planck must be positive and finite"):
            rc.AccuracyLaw(exponent_a=0.5, t_planck=math.inf)

    @pytest.mark.parametrize("method", ["delta_t", "accumulated_spread", "spread_rate"])
    @pytest.mark.parametrize("elapsed", [-1.0, math.nan, math.inf])
    def test_elapsed_time_must_be_finite_and_nonnegative(self, method, elapsed):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-3)
        with pytest.raises(ValueError, match="elapsed time must be finite and nonnegative"):
            getattr(law, method)(elapsed)


class TestSpreadRate:
    def test_one_third_accumulates_paper_exponent(self):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-3)
        # accumulated spread carries the decay exponent Tp^(4/3) T^(2/3)
        for t_end in (0.5, 2.0, 8.0):
            want = law.t_planck ** (4.0 / 3.0) * t_end ** (2.0 / 3.0)
            assert law.accumulated_spread(t_end) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("a", [1.0 / 3.0, 0.5, 1.0])
    def test_rate_is_derivative_of_accumulated(self, a):
        law = rc.AccuracyLaw(exponent_a=a, t_planck=1e-3)
        for t in (0.2, 1.0, 3.0):
            h = 1e-6 * t
            fd = (law.accumulated_spread(t + h) - law.accumulated_spread(t - h)) / (2 * h)
            assert law.spread_rate(t) == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("a", [1.0 / 3.0, 0.5, 1.0])
    def test_accumulated_matches_rate_quadrature(self, a):
        # substitution u = T^(2a) makes the rate integrand constant, so the
        # quadrature of db/dT from 0 to T is exact
        law = rc.AccuracyLaw(exponent_a=a, t_planck=1e-3)
        t_end = 3.0
        u = np.linspace(0.0, t_end ** (2 * a), 200_001)
        integral = law.t_planck ** (2 * (1 - a)) * u[-1]
        assert abs(integral - law.accumulated_spread(t_end)) <= 1e-10

    def test_half_exponent_constant_rate(self):
        law = rc.AccuracyLaw(exponent_a=0.5, t_planck=1e-4)
        for t in (0.0, 0.1, 5.0):
            assert law.spread_rate(t) == pytest.approx(1e-4, rel=1e-12)

    def test_divergent_right_limit_flagged(self):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-4)
        assert law.spread_rate(0.0) == math.inf

    def test_ideal_clock_limit(self):
        law = rc.AccuracyLaw(exponent_a=1.0 / 3.0, t_planck=1e-300)
        assert law.spread_rate(1.0) <= 1e-300


class TestIdealClock:
    def test_density_is_discrete_delta(self, ideal_clock):
        d = rc.clock_density(ideal_clock, 2.0)
        nonzero = np.nonzero(d.density > 1e-12)[0]
        assert len(nonzero) == 1
        assert d.t_grid[nonzero[0]] == pytest.approx(2.0, abs=1e-12)

    def test_delta_moments_are_zero(self, ideal_clock):
        d = rc.clock_density(ideal_clock, 2.0)
        a, b = rc.density_moments(d)
        assert a == 0.0
        assert b <= 1e-20

    def test_normalization(self, ideal_clock):
        for node in (5, 13, 30):
            d = rc.clock_density(ideal_clock, node * ideal_clock.dx)
            assert d.norm_check == pytest.approx(1.0, abs=1e-8)

    def test_unreachable_reading(self, ideal_clock):
        with pytest.raises(rc.UnreachableReadingError):
            rc.clock_density(ideal_clock, 50.0)

    def test_mid_gap_reading_is_unreachable(self, ideal_clock):
        # the sub-spacing window between two dial values captures no eigenvalue
        with pytest.raises(rc.UnreachableReadingError):
            rc.clock_density(ideal_clock, 5.5 * ideal_clock.dx)


class TestFreeParticleClock:
    def test_density_normalized_for_reachable_readings(self, free_clock):
        for t0 in (0.5, 1.0, 2.0, 3.0):
            d = rc.clock_density(free_clock, t0)
            assert d.norm_check == pytest.approx(1.0, abs=1e-8)
            assert np.all(d.density >= -1e-12)

    def test_width_grows_with_reading(self):
        clock = rc.build_free_particle_clock(512, mass=8.0, sigma0=0.35, delta_c=0.3, tau=8.0)
        widths = [rc.clock_density(clock, t0).std() for t0 in (0.5, 1.5, 2.5, 3.5)]
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_initial_reading_concentrated_at_origin(self):
        clock = rc.build_free_particle_clock(256, mass=50.0, sigma0=0.3, delta_c=0.25, tau=4.0)
        prob = np.abs(clock.evolve_state(np.array([0.0]))[:, 0]) ** 2
        mass_near_origin = prob[np.abs(clock.x) <= 3 * 0.3].sum()
        assert mass_near_origin >= 0.995

    def test_heavy_mass_density_stays_narrow(self):
        clock = rc.build_free_particle_clock(512, mass=1e6, sigma0=0.25, delta_c=0.2, tau=4.0)
        d = rc.clock_density(clock, 2.0)
        width_sq = 0.25**2 + 0.2**2 / 3.0
        assert d.variance() == pytest.approx(width_sq, rel=0.05)

    def test_moments_match_gaussian_window_variance(self):
        # heavy mass: spreading negligible, variance = sigma0^2 + delta^2/3
        clock = rc.build_free_particle_clock(1024, mass=500.0, sigma0=0.5, delta_c=0.35, tau=4.0)
        d = rc.clock_density(clock, 2.0)
        a, b = rc.density_moments(d)
        want = 0.5 * (0.5**2 + 0.35**2 / 3.0)
        assert b == pytest.approx(want, rel=0.02)
        assert abs(a) <= 0.05

    def test_moments_match_brute_force(self, free_clock):
        d = rc.clock_density(free_clock, 1.5)
        a, b = rc.density_moments(d)
        mean, var = oracles.brute_moments(list(d.t_grid), list(d.density))
        assert a == pytest.approx(-(mean - 1.5), abs=1e-12)
        assert b == pytest.approx(var / 2.0, abs=1e-12)

    def test_moment_sign_convention(self):
        # density centered above the label: mean > T so a < 0
        grid = np.linspace(0.0, 4.0, 801)
        d = rc.gaussian_clock_density(1.0, grid, width=0.2, mean=1.5)
        a, b = rc.density_moments(d)
        assert a == pytest.approx(-0.5, abs=1e-6)
        assert b == pytest.approx(0.5 * 0.2**2, rel=1e-6)

    def test_grid_resolution_guard(self):
        with pytest.raises(ValueError, match="grid too coarse"):
            rc.build_free_particle_clock(16, mass=10.0, sigma0=0.1, delta_c=0.3, tau=8.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rc.build_free_particle_clock(4, mass=1.0, sigma0=0.5, delta_c=0.3, tau=4.0)
        with pytest.raises(ValueError):
            rc.build_free_particle_clock(64, mass=-1.0, sigma0=0.5, delta_c=0.3, tau=4.0)

    def test_spreading_follows_free_gaussian_law(self):
        # spectral grid dynamics: position variance of |psi(t)|^2 tracks
        # sigma0^2 + t^2 / (4 m^2 sigma0^2)
        mass, sigma0 = 6.0, 0.4
        clock = rc.build_free_particle_clock(1024, mass=mass, sigma0=sigma0, delta_c=0.3, tau=6.0)
        psi_t = clock.evolve_state(np.array([0.0, 2.0, 4.0]))
        for col, t in zip(psi_t.T, (0.0, 2.0, 4.0)):
            prob = np.abs(col) ** 2
            mean = float(np.sum(prob * clock.x))
            var = float(np.sum(prob * (clock.x - mean) ** 2))
            want = sigma0**2 + t**2 / (4.0 * mass**2 * sigma0**2)
            assert var == pytest.approx(want, rel=1e-3)
            assert mean == pytest.approx(t, abs=1e-3)


def unchunked_masses(clock, t_values, t_grid):
    """Reference: each window's mass from one evolution of the whole grid."""
    psi_t = clock.evolve_state(t_grid)
    return [np.sum(np.abs(psi_t[clock._window_mask(t0), :]) ** 2, axis=0) for t0 in t_values]


class TestClockDensities:
    T_VALUES = [0.5, 2.0, 3.25, 5.0]

    @pytest.mark.parametrize("n, nt", [(256, None), (16384, 65)])
    def test_bitwise_equal_to_one_unchunked_evolution(self, n, nt):
        clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
        t_grid = clock.default_t_grid() if nt is None else np.linspace(0.0, clock.tau, nt)
        if nt is not None:
            # chunked, and a split into full chunks would leave one column
            assert t_grid.size % (rc.clocks._CHUNK_ENTRIES // n) == 1
        got = rc.clock_densities(clock, self.T_VALUES, t_grid)
        w = rc.trapezoid_weights(t_grid)
        for d, t0, raw in zip(got, self.T_VALUES, unchunked_masses(clock, self.T_VALUES, t_grid)):
            assert d.t_value == t0
            assert np.array_equal(d.density, raw / float(np.sum(w * raw)))
            assert np.array_equal(d.density, rc.clock_density(clock, t0, t_grid).density)
            assert np.array_equal(clock.window_probabilities(t0, t_grid), raw)

    @pytest.mark.parametrize("grid", ["default", "passed"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_unreachable_reading_raises_before_any_evolution(self, free_clock, monkeypatch, position, grid):
        # every evolution of the packet takes its phases from _phase_rows, on
        # both routes: the reading table of the default grid, and the chunk loop
        # on a grid passed in
        def forbidden(self, *args):
            raise AssertionError("the packet was evolved before every reading was checked")

        monkeypatch.setattr(rc.ClockModel, "_phase_rows", forbidden)
        t_grid = None if grid == "default" else free_clock.default_t_grid()
        t_values = [1.0, 2.0]
        t_values.insert(position, 50.0)
        with pytest.raises(rc.UnreachableReadingError, match="outside the clock range"):
            rc.clock_densities(free_clock, t_values, t_grid)


class TestDefaultGridTables:
    """The default grid, its weights and its phase table are built once per
    clock and shared read-only by every reading; a caller's grid, even an
    equal one, takes the uncached path."""

    PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)

    @staticmethod
    def clock(n=64):
        # the perfbench probabilities clock: a 49-point default grid
        return rc.build_free_particle_clock(n, mass=30.0, sigma0=0.5, delta_c=0.35, tau=2.8)

    def test_default_grid_is_shared_and_read_only(self):
        clock = self.clock()
        grid = clock._t_grid(None)
        assert grid is clock._t_grid(None)
        assert not grid.flags.writeable
        fresh = clock.default_t_grid()
        assert fresh is not grid and fresh.flags.writeable
        assert np.array_equal(fresh, grid)
        fresh[0] = -1.0
        assert grid[0] == 0.0 and clock.default_t_grid()[0] == 0.0

    @pytest.mark.parametrize("form", FORMS)
    def test_default_grid_bitwise_equal_to_the_same_grid_passed(self, rng, form):
        clock = self.clock()
        rho = product_state(clock, qubit_state(rng, form), form)
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 2))
        family = rc.ProjectorFamily(labels=("plus", "minus"), projectors=(self.PLUS, np.eye(2) - self.PLUS))
        for t0 in (0.8, 1.9):
            # the explicit grid is a fresh array, so it computes its own weights and phases
            explicit = clock.default_t_grid()
            p = rc.conditional_probabilities(rho, family, clock, t0, h)
            assert np.array_equal(p, rc.conditional_probabilities(rho, family, clock, t0, h, explicit))
            m = rc.rho_mod(rho, clock, t0, h)
            assert np.array_equal(m.matrix, rc.rho_mod(rho, clock, t0, h, explicit).matrix)
            e = rc.detect_event(rho, family, clock, t0, 10, 0.3, h)
            assert e.as_dict() == rc.detect_event(rho, family, clock, t0, 10, 0.3, h, t_grid=explicit).as_dict()
        assert clock._default_phases.shape == (clock._t_grid(None).size, clock.n)
        assert not clock._default_phases.flags.writeable

    def test_no_phase_table_above_one_chunk(self):
        # README clock at n = 16384: 104 x 16384 phases exceed the 2^20-entry chunk budget
        clock = rc.build_free_particle_clock(16384, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
        t_grid = clock.default_t_grid()
        assert t_grid.size * clock.n > rc.clocks._CHUNK_ENTRIES
        h = rc.Observable.from_matrix(rc.SIGMA_Z)
        plus = rc.DensityOperator.from_matrix(self.PLUS, (2,))
        p = rc.conditional_probability(clock.rho0.tensor(plus), self.PLUS, clock, 2.0, h)
        assert clock._default_phases is None
        # product input: the window mass of the packet evolved at each time,
        # times the Schroedinger-picture probability of plus, integrated over t
        psi_t = clock.evolve_state(t_grid)
        mass = np.sum(np.abs(psi_t[clock._window_mask(2.0)]) ** 2, axis=0)
        born = np.array([plus.expectation(rc.unitary_evolve(self.PLUS, h, t)) for t in t_grid])
        assert p == pytest.approx(oracles.trapezoid(mass * born, t_grid) / oracles.trapezoid(mass, t_grid), abs=1e-9)

    def test_repeated_readings_retain_only_the_clock_tables(self, rng):
        clock = self.clock(128)
        rho = clock.rho0.tensor(qubit_state(rng, "factored"))
        h = rc.Observable.from_matrix(rc.SIGMA_Z)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t0 in np.linspace(0.6, 2.2, 30):
                rc.conditional_probabilities(rho, [self.PLUS], clock, t0, h)
                rc.rho_mod(rho, clock, t0, h)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        tables = sum(a.nbytes for a in (clock._default_grid, clock._default_weights, clock._default_phases))
        # beyond the tables (99 KiB here) only numpy's and Python's small-object
        # caches stay allocated, a few KiB that do not grow with the readings
        assert tables <= retained <= tables + 32768


class TestReadingTable:
    """|psi(x, t)|^2 on the default grid, built once per clock while nt n fits
    one chunk; the reading densities on that grid sum its window rows."""

    @pytest.mark.parametrize(
        "clock",
        [
            TestDefaultGridTables.clock(),
            rc.build_free_particle_clock(256, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0),
            rc.build_ideal_clock(48, tau=4.0),
        ],
        ids=["perfbench", "readme-256", "ideal"],
    )
    def test_bitwise_equal_to_the_same_grid_passed(self, clock):
        t_values = [0.7, 1.3, 2.0]
        table = clock._default_readings
        assert table.shape == (clock.n, clock._t_grid(None).size)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        # the explicit grid is a fresh array, so its masses are evolved chunk by chunk
        cached = rc.clock_densities(clock, t_values)
        evolved = rc.clock_densities(clock, t_values, clock.default_t_grid())
        for a, b in zip(cached, evolved):
            assert np.array_equal(a.density, b.density)
            assert (a.weight, a.norm_check) == (b.weight, b.norm_check)
        one = rc.clock_density(clock, t_values[1])
        assert np.array_equal(one.density, rc.clock_density(clock, t_values[1], clock.default_t_grid()).density)
        assert np.array_equal(one.density, cached[1].density)
        assert clock._default_readings is table

    def test_ambiguity_width_is_unchanged(self):
        clock = TestDefaultGridTables.clock()
        rho = clock.rho0.tensor(rc.DensityOperator.from_vector(np.array([0.6, 0.8j]), (2,)))
        family = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_Z))
        for t0 in (0.8, 1.9):
            rec = rc.detect_event(rho, family, clock, t0, 10, 0.3)
            width = rc.clock_density(clock, t0, clock.default_t_grid()).std()
            assert rec.metadata["clock_ambiguity_width"] == width

    def test_no_table_above_one_chunk(self):
        # README clock at n = 16384: 104 x 16384 entries exceed the 2^20-entry chunk budget
        clock = rc.build_free_particle_clock(16384, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
        grid = clock._t_grid(None)
        assert grid.size * clock.n > rc.clocks._CHUNK_ENTRIES
        density = rc.clock_density(clock, 2.0)
        assert clock._default_readings is None
        psi_t = clock.evolve_state(grid[[0, 50, 103]])
        mass = np.sum(np.abs(psi_t[clock._window_mask(2.0)]) ** 2, axis=0)
        np.testing.assert_allclose(density.density[[0, 50, 103]] * density.weight, mass, rtol=0.0, atol=1e-12)


README_CLOCK = dict(mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)


class TestPhaseRows:
    """e^{i dispersion t} on a uniform grid whose table fits one chunk: row
    a b + b' as hi[a] (.) lo[b'], about 2 n sqrt(nt) exponentials; every
    other grid keeps one exponential per entry."""

    @staticmethod
    def direct(t, clock, unit=1j):
        return np.exp(unit * np.outer(t, clock.dispersion))

    @pytest.mark.parametrize(
        "clock",
        [
            TestDefaultGridTables.clock(),
            rc.build_free_particle_clock(256, **README_CLOCK),
            rc.build_free_particle_clock(1024, **README_CLOCK),
            rc.build_ideal_clock(48, tau=4.0),
        ],
        ids=["perfbench-64", "readme-256", "readme-1024", "ideal"],
    )
    def test_split_rows_match_one_exponential_per_entry(self, clock):
        t = clock.default_t_grid()
        bound = 4 * np.finfo(float).eps * np.abs(np.outer(t, clock.dispersion)).max()
        for unit in (1j, -1j):
            split, direct = clock._phase_rows(t, slice(None), unit), self.direct(t, clock, unit)
            # the split route is taken: its rounding differs from the direct one
            assert split.shape == direct.shape and not np.array_equal(split, direct)
            assert np.abs(split - direct).max() <= bound
        assert np.array_equal(clock._default_phases, clock._phase_rows(t, slice(None)))

    def test_slice_rows_are_bitwise_those_of_the_whole_table(self):
        rng = np.random.default_rng(27)
        clock = rc.build_free_particle_clock(256, **README_CLOCK)
        t = clock.default_t_grid()
        whole = {unit: clock._phase_rows(t, slice(None), unit) for unit in (1j, -1j)}
        for _ in range(20):
            start, stop = np.sort(rng.choice(t.size + 1, size=2, replace=False))
            for unit, table in whole.items():
                assert np.array_equal(clock._phase_rows(t, slice(start, stop), unit), table[start:stop])
            assert np.array_equal(clock._phases(t, slice(start, stop)), clock._default_phases[start:stop])

    def test_other_grids_keep_one_exponential_per_entry(self):
        rng = np.random.default_rng(2027)
        small = rc.build_free_particle_clock(256, **README_CLOCK)
        large = rc.build_free_particle_clock(16384, **README_CLOCK)
        uneven = np.sort(rng.uniform(0.0, small.tau, 104))
        cases = [(small, uneven), (large, large.default_t_grid()), (small, np.array([0.5, 1.7, 2.9]))]
        for clock, t in cases:
            sl = slice(1, t.size - 1)
            for unit in (1j, -1j):
                assert np.array_equal(clock._phase_rows(t, sl, unit), self.direct(t[sl], clock, unit))
            if t.size * clock.n <= rc.clocks._CHUNK_ENTRIES:
                want = np.fft.ifft(np.fft.fft(clock.psi0)[:, None] * self.direct(t, clock, -1j).T, axis=0)
                assert np.array_equal(clock.evolve_state(t), want)


class TestGaussianDensity:
    def test_symmetric_density_moments(self):
        grid = np.linspace(0.0, 6.0, 1201)
        d = rc.gaussian_clock_density(3.0, grid, width=0.25)
        a, b = rc.density_moments(d)
        assert abs(a) <= 1e-9
        assert b == pytest.approx(0.5 * 0.25**2, rel=1e-6)

    def test_delta_density_moments(self):
        grid = np.linspace(0.0, 4.0, 401)
        d = rc.delta_clock_density(2.0, grid)
        assert rc.density_moments(d) == (0.0, 0.0)

    def test_delta_beyond_the_grid_is_rejected(self):
        grid = np.linspace(0.0, 6.0, 61)
        for t0 in (100.0, 6.051, -0.051):
            with pytest.raises(ValueError, match="beyond the grid"):
                rc.delta_clock_density(t0, grid)
        # within half a step of either end the delta sits on the end node
        assert rc.delta_clock_density(6.049, grid).density[-1] > 0.0
        assert rc.delta_clock_density(-0.049, grid).density[0] > 0.0

    @pytest.mark.parametrize("t0, width, mean", [(100.0, 0.1, None), (2.0, 0.01, 50.0)])
    def test_gaussian_with_no_mass_on_the_grid_is_rejected(self, t0, width, mean):
        # the Gaussian underflows to 0 at every node: rejected before 0 / 0,
        # which would warn (an error under the suite's filter)
        grid = np.linspace(0.0, 6.0, 601)
        with pytest.raises(ValueError, match="has no weight on the grid"):
            rc.gaussian_clock_density(t0, grid, width=width, mean=mean)

    def test_gaussian_with_an_infinite_width_is_rejected(self):
        with pytest.raises(ValueError, match="width must be positive, t0 and mean finite"):
            rc.gaussian_clock_density(2.0, np.linspace(0.0, 6.0, 61), width=math.inf)



IDEAL16 = rc.build_ideal_clock(16, tau=4.0)
FREE_ARGS = dict(mass=30.0, sigma0=0.4, delta_c=0.35, tau=4.0)
NAN_CASES = {
    "detect_event-alpha": (
        lambda: rc.detect_event(
            IDEAL16.rho0.tensor(rc.DensityOperator.maximally_mixed((2,))),
            rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_Z)), IDEAL16, 1.0, 10, alpha=math.nan,
        ),
        "alpha must be positive",
    ),
    "AccuracyLaw-t_planck": (lambda: rc.AccuracyLaw(exponent_a=0.5, t_planck=math.nan), "t_planck must be positive"),
    "ClockModel-delta_c": (lambda: dataclasses.replace(IDEAL16, delta_c=math.nan), "half-width must be positive"),
    "ClockModel-tau": (lambda: dataclasses.replace(IDEAL16, tau=math.nan), "tau must be positive"),
    **{
        f"build_free_particle_clock-{key}": (
            lambda key=key: rc.build_free_particle_clock(128, **{**FREE_ARGS, key: math.nan}),
            f"{key}.* must be positive",
        )
        for key in FREE_ARGS
    },
    "build_ideal_clock-tau": (lambda: rc.build_ideal_clock(16, tau=math.nan), "tau must be positive"),
    **{
        f"gaussian_clock_density-{key}": (
            lambda key=key: rc.gaussian_clock_density(
                **{"t0": 2.0, "t_grid": np.linspace(0.0, 6.0, 61), "width": 0.3, key: math.nan}
            ),
            "width must be positive, t0 and mean finite",
        )
        for key in ("width", "mean", "t0")
    },
}


# NaN fails every comparison, so a guard written x <= 0 lets it through
@pytest.mark.parametrize("case", list(NAN_CASES))
def test_nan_parameters_are_rejected(case):
    call, message = NAN_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()
