import functools
import math

import numpy as np
import pytest

import relclock as rc
from relclock.relational import EmpiricalSpreadRate

import oracles
from inputs import FORMS, entangled_state, product_state, qubit_state, widen

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


class TestEnergyBasisKernel:
    """The probability quadrature runs in h's eigenbasis.  sigma_z, which most
    tests use, is diagonal there, so it would hide a wrong rotation: these
    tests take a non-diagonal h with a degenerate spectrum, and no h at all."""

    T0 = 1.0

    @pytest.fixture(scope="class")
    def clock(self):
        # 40 nodes, 5 in the window: factors of d k = 4 and 8 columns
        # (TestFactorKernel forces each route of the factor kernel)
        clock = rc.build_free_particle_clock(40, mass=30.0, sigma0=0.5, delta_c=0.5, tau=1.5)
        assert np.count_nonzero(clock._window_mask(self.T0)) == 5
        return clock

    @staticmethod
    def state(rng, clock, rank, form):
        cols = [oracles.boosted_packet_vector(rng, clock.psi0, clock.x, 4) for _ in range(rank)]
        f = np.stack(cols, axis=1)
        f /= np.linalg.norm(f)
        if form == "dense":
            return rc.DensityOperator.from_matrix(f @ f.conj().T, (clock.n, 4))
        return rc.DensityOperator.from_factor(f, (clock.n, 4))

    @staticmethod
    def degenerate_h(rng):
        u = oracles.random_unitary(rng, 4)
        return (u * np.array([1.0, 1.0, -1.0, 0.0])) @ u.conj().T

    @staticmethod
    def family(rng, members=2):
        u = oracles.random_unitary(rng, 4)
        first = u[:, : 5 - members] @ u[:, : 5 - members].conj().T
        rest = [np.outer(u[:, k], u[:, k].conj()) for k in range(5 - members, 4)]
        return rc.ProjectorFamily(labels=tuple(range(members)), projectors=(first, *rest))

    @pytest.mark.parametrize(
        "h_kind, form, rank",
        [("degenerate", "factored", 1), ("degenerate", "factored", 2), ("degenerate", "dense", 2),
         ("none", "factored", 1), ("none", "dense", 2)],
        ids=["factor-rank1", "factor-rank2", "from_matrix", "no-h-factor-rank1", "no-h-from_matrix"],
    )
    def test_matches_brute_force(self, clock, rng, h_kind, form, rank):
        rho = self.state(rng, clock, rank, form)
        h = self.degenerate_h(rng) if h_kind == "degenerate" else np.zeros((4, 4), dtype=complex)
        h_system = rc.Observable.from_matrix(h) if h_kind == "degenerate" else None
        fam = self.family(rng)
        t_grid = np.linspace(0.0, clock.tau, 17)
        got = rc.conditional_probabilities(rho, fam, clock, self.T0, h_system=h_system, t_grid=t_grid)
        window = clock.window_projector(self.T0)
        for q, value in zip(fam.projectors, got):
            want = oracles.brute_conditional_probability(rho.matrix, q, window, clock.h_clock.matrix, h, t_grid)
            assert value == pytest.approx(want, abs=1e-9)

    def test_family_call_equals_member_calls(self, clock, rng):
        rho = self.state(rng, clock, 2, "factored")
        h = rc.Observable.from_matrix(self.degenerate_h(rng))
        fam = self.family(rng, 3)
        together = rc.conditional_probabilities(rho, fam, clock, self.T0, h_system=h)
        for q, value in zip(fam.projectors, together):
            assert abs(rc.conditional_probability(rho, q, clock, self.T0, h_system=h) - value) <= 1e-14


class TestFactorKernel:
    """A Gram factor's probability kernel takes its window rows by one matmul
    of the t-chunk's phase rows with the window DFT columns of F, or, where
    ``_rows_by_matmul`` says FFTs win, by an FFT of F's columns per time.
    Each route is forced here through the flop-rate ratio of the rule.  The
    tests draw from their own generators, so the session generator's draws
    for the tests after them stay as they were."""

    @staticmethod
    def force(monkeypatch, route):
        # an infinite ratio sends every window to the matmul, a negative one even an empty window to the FFTs
        monkeypatch.setattr(rc.relational, "_MATMUL_FLOP_RATE", math.inf if route == "matmul" else -1.0)

    @staticmethod
    def factor_state(rng, clock, d, k):
        # k boosted packets, each entangled with the system: a rank-k Gram factor
        cols = [oracles.boosted_packet_vector(rng, clock.psi0, clock.x, d) for _ in range(k)]
        f = np.stack(cols, axis=1)
        return rc.DensityOperator.from_factor(f / np.linalg.norm(f), (clock.n, d))

    @staticmethod
    def family(rng, d):
        u = oracles.random_unitary(rng, d)
        first = u[:, : d // 2] @ u[:, : d // 2].conj().T
        return rc.ProjectorFamily(labels=("first", "rest"), projectors=(first, np.eye(d) - first))

    @pytest.mark.parametrize("route", ["matmul", "fft"])
    @pytest.mark.parametrize(
        "n, d, k, with_h",
        # 40 nodes leave 3 in the window, so d k = 4 and 8 are wide factors
        [(40, 4, 1, True), (40, 4, 2, False), (64, 2, 1, False), (64, 2, 2, True)],
    )
    def test_both_routes_match_brute_force(self, monkeypatch, route, n, d, k, with_h):
        rng = np.random.default_rng(1000 * n + 10 * d + k)
        clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.5, delta_c=0.35, tau=1.5 if n == 40 else 2.8)
        self.force(monkeypatch, route)
        rho = self.factor_state(rng, clock, d, k)
        h = oracles.random_hermitian(rng, d) if with_h else np.zeros((d, d), dtype=complex)
        fam = self.family(rng, d)
        t_grid = np.linspace(0.0, clock.tau, 17)
        got = rc.conditional_probabilities(
            rho, fam, clock, 1.0, rc.Observable.from_matrix(h) if with_h else None, t_grid
        )
        window = clock.window_projector(1.0)
        for q, value in zip(fam.projectors, got):
            want = oracles.brute_conditional_probability(rho.matrix, q, window, clock.h_clock.matrix, h, t_grid)
            assert value == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [40, 64, 128, 256, 2048])
    def test_routes_agree(self, monkeypatch, n, d, k):
        rng = np.random.default_rng(1000 * n + 10 * d + k)
        if n <= 128:
            clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.5, delta_c=0.35, tau=1.5 if n == 40 else 2.8)
        else:
            clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
        rho = self.factor_state(rng, clock, d, k)
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, d))
        fam = self.family(rng, d)
        caller_grid = np.linspace(0.0, clock.tau, 23)
        got = {}
        for route in ("matmul", "fft"):
            self.force(monkeypatch, route)
            got[route] = [rc.conditional_probabilities(rho, fam, clock, 1.2, h, grid) for grid in (None, caller_grid)]
        for by_matmul, by_fft in zip(got["matmul"], got["fft"]):
            np.testing.assert_allclose(by_matmul, by_fft, rtol=0, atol=1e-12)

    def test_the_rule_splits_the_readme_clock(self):
        # README clock windows: 13 nodes at n = 256 take the matmul, 106 at n = 2048 the FFTs
        for n, matmul in ((256, True), (2048, False)):
            clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
            r = int(np.count_nonzero(clock._window_mask(2.0)))
            assert rc.relational._rows_by_matmul(n, r) is matmul

    @pytest.mark.parametrize("route", ["matmul", "fft"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_window_without_grid_nodes_raises(self, monkeypatch, route, k):
        rng = np.random.default_rng(k)
        # a window a fifth of the grid spacing wide, centred between two nodes: r = 0
        clock = rc.build_ideal_clock(48, tau=4.0, delta_c=0.1 * 4.0 / 44)
        t0 = 10.5 * clock.dx
        assert not clock._window_mask(t0).any()
        self.force(monkeypatch, route)
        g = rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k))
        rho = clock.rho0.tensor(rc.DensityOperator.from_factor(g / np.linalg.norm(g), (2,)))
        with pytest.raises(rc.UnreachableReadingError):
            rc.conditional_probabilities(rho, [P_UP, I2 - P_UP], clock, t0, rc.Observable.from_matrix(rc.SIGMA_X))


def parent_window_factor(rho, clock, mask, sys_ops, h, t_grid):
    """The window factor Y by the arithmetic the library used before its
    energy-basis route, unchunked: a Heisenberg stack of each system operator
    over t (d^2 exponentials per time, as ``heisenberg_stack`` takes them) and
    W(t) F by three FFTs per column and time."""
    n, nt = clock.n, t_grid.size
    d = rho.dim // n
    k = rho.factor.shape[1]
    lam, v = h.eigenvalues, h.eigenvectors
    omega = lam[:, None] - lam[None, :]
    factor = np.exp(1j * t_grid[:, None, None] * omega)
    s_t = np.stack([v @ ((v.conj().T @ op @ v) * factor) @ v.conj().T for op in sys_ops], axis=1)
    s_t *= np.sqrt(rc.clocks.trapezoid_weights(t_grid))[:, None, None, None]
    f = rho.factor.reshape(n, d * k).T
    if mask is None:
        g = np.broadcast_to(f, (nt, d * k, n))
    else:
        phase = np.exp(1j * np.outer(t_grid, clock.dispersion))
        g = np.fft.ifft(phase.conj()[:, None, :] * np.fft.fft(f))
        g[:, :, ~mask] = 0.0
        g = np.fft.ifft(phase[:, None, :] * np.fft.fft(g))
    sx = s_t.reshape(nt, len(sys_ops) * d, d) @ g.reshape(nt, d, k * n)
    return sx.reshape(nt, len(sys_ops), d, k, n).transpose(4, 2, 0, 1, 3).reshape(n * d, nt * len(sys_ops) * k)


class _Counted(np.ndarray):
    """An array whose matmuls, and those of every array computed from it,
    record their multiply-adds per BLAS call (numpy calls one per matrix of a
    stack)."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(a) for a in inputs]
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        if ufunc is np.matmul:
            a, b = inputs
            _Counted.calls.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out is not None:
            return out[0]
        return result.view(_Counted) if isinstance(result, np.ndarray) else result


class TestWindowFactor:
    """The factor Y of a conditioned Gram-factored state takes L(t) from the
    clock's phase table, applies S(t) in h's eigenbasis as S~ scaled by
    d-vectors of phases, and maps back to the clock nodes by one inverse FFT
    per column and time.  The tests draw from their own generators, so the
    session generator's draws for the tests after them stay as they were."""

    T0 = 1.0
    factor_state = staticmethod(TestFactorKernel.factor_state)

    @staticmethod
    def projector(rng, d, rank):
        u = oracles.random_unitary(rng, d)
        return u[:, :rank] @ u[:, :rank].conj().T

    @pytest.mark.parametrize("form", FORMS + ("wide",))
    @pytest.mark.parametrize("k", [1, 2])
    def test_reduce_state_matches_brute_force(self, small_clock, k, form):
        # d = 4 on 40 nodes with 17 times: Y keeps 17 k columns of 160 rows, for
        # the dense form of the state as for its factor; the wide form takes the
        # dense sandwich in h's eigenbasis, with a window and without
        rng = np.random.default_rng(2200 + k)
        clock = small_clock
        rho = self.factor_state(rng, clock, 4, k)
        if form == "dense":
            rho = rc.DensityOperator.from_matrix(rho.matrix, rho.space)
        elif form == "wide":
            rho = widen(rho)
        h = oracles.random_hermitian(rng, 4)
        q = self.projector(rng, 4, 2)
        t_grid = np.linspace(0.0, clock.tau, 17)
        for events in ([(q, self.T0)], [(q, None)], [(None, self.T0)]):
            got = rc.reduce_state(rho, clock, events, rc.Observable.from_matrix(h), t_grid)
            assert (got.factor is not None) is rc.relational._keeps_factor(rho, t_grid, 1) is (form != "wide")
            want = oracles.brute_reduce_state(
                rho.matrix, events, clock.window_projector, clock.h_clock.matrix, h, t_grid
            )
            np.testing.assert_allclose(got.matrix, want, atol=1e-9)

    @pytest.mark.parametrize("frame", [0.0, T0])
    @pytest.mark.parametrize("windowed", [True, False])
    def test_the_sandwich_of_a_wide_factor_matches_brute_force(self, small_clock, windowed, frame):
        # each window and frame of the dense sandwich; no public call takes a
        # frame without a window, so the sandwich is called directly
        rng = np.random.default_rng(2250 + windowed)
        clock = small_clock
        rho = widen(self.factor_state(rng, clock, 4, 2))
        h = oracles.random_hermitian(rng, 4)
        q = self.projector(rng, 4, 2)
        t_grid = np.linspace(0.0, clock.tau, 17)
        mask = clock._window_mask(self.T0) if windowed else None
        got = rc.relational._window_sandwich(rho, clock, mask, [q], rc.Observable.from_matrix(h), t_grid, frame)
        want = oracles.brute_reduce_state(
            rho.matrix, [(q, self.T0 if windowed else None)], clock.window_projector, clock.h_clock.matrix, h, t_grid
        )
        # the frame of the reading: U0 X U0^dagger is X evolved backwards in the Heisenberg picture
        h_full = np.kron(clock.h_clock.matrix, np.eye(4)) + np.kron(np.eye(clock.n), h)
        np.testing.assert_allclose(got / got.trace(), oracles.heisenberg(want, h_full, -frame), atol=1e-9)

    @pytest.mark.parametrize("chunk", [None, 4096])
    @pytest.mark.parametrize("n", [64, 128, 256, 2048])
    def test_matches_the_heisenberg_stack_arithmetic(self, monkeypatch, n, chunk):
        # n = 64 ... 256 take the matmul with the window's DFT rows, 2048 the FFTs;
        # the small chunk walks the time grid one to a few times at a time
        rng = np.random.default_rng(2300 + n)
        if n <= 128:
            clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.5, delta_c=0.35, tau=2.8)
        else:
            clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
        if chunk is not None:
            monkeypatch.setattr(rc.relational, "_CHUNK_ENTRIES", chunk)
        rho = self.factor_state(rng, clock, 2, 2)
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 2))
        ops = [self.projector(rng, 2, 1), I2 - P_UP]
        t_grid = clock._t_grid(None)
        for mask in (clock._window_mask(2.0), None):
            got = rc.relational._window_factor(rho, clock, mask, ops, h, t_grid)
            want = parent_window_factor(rho, clock, mask, ops, h, t_grid)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [256, 2048])
    def test_a_caller_grid_equal_to_the_default_gives_the_same_factor(self, n):
        rng = np.random.default_rng(2400 + n)
        clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
        rho = self.factor_state(rng, clock, 2, 2)
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 2))
        ops, mask = [self.projector(rng, 2, 1)], clock._window_mask(2.0)
        cached = rc.relational._window_factor(rho, clock, mask, ops, h, clock._t_grid(None))
        assert np.array_equal(rc.relational._window_factor(rho, clock, mask, ops, h, clock.default_t_grid()), cached)
        events = [(ops[0], 2.0)]
        state = rc.reduce_state(rho, clock, events, h)
        assert np.array_equal(rc.reduce_state(rho, clock, events, h, clock.default_t_grid()).factor, state.factor)

    @pytest.mark.parametrize("n", [64, 128])
    def test_every_product_stays_below_two_openblas_threads(self, monkeypatch, n):
        # OpenBLAS hands a complex product of 2^16 multiply-adds or more to a
        # second thread, which stalled for milliseconds on a busy two-core host
        rng = np.random.default_rng(2500 + n)
        clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.5, delta_c=0.35, tau=2.8)
        phases, window_dft, eigenbasis = rc.ClockModel._phases, rc.relational._window_dft, rc.relational._eigenbasis
        monkeypatch.setattr(rc.ClockModel, "_phases", lambda self, *a: phases(self, *a).view(_Counted))
        monkeypatch.setattr(rc.relational, "_window_dft", lambda *a: window_dft(*a).view(_Counted))
        monkeypatch.setattr(rc.relational, "_eigenbasis", lambda *a: tuple(x.view(_Counted) for x in eigenbasis(*a)))
        monkeypatch.setattr(_Counted, "calls", [])
        for d in (2, 4):
            first = self.projector(rng, d, d // 2)
            family = rc.ProjectorFamily(labels=("first", "rest"), projectors=(first, np.eye(d) - first))
            h = rc.Observable.from_matrix(oracles.random_hermitian(rng, d))
            for k in (1, 2):
                rho = self.factor_state(rng, clock, d, k)
                outs = [rc.reduce_state(rho, clock, [(first, self.T0)], h), rc.rho_mod(rho, clock, self.T0, h)]
                # the family's Y has 2 nt k columns, kept only while they do not outnumber its rows
                if rc.relational._keeps_factor(rho, clock._t_grid(None), 2):
                    outs.append(rc.rho_event(rho, family, clock, self.T0, h))
                assert all(out.factor is not None for out in outs)
                rc.detect_event(rho, family, clock, self.T0, 10, 0.3, h)
        assert _Counted.calls and max(_Counted.calls) < 2**16


class TestProjectorChecks:
    """Members are checked in order, and the first failing one raises the
    message of its first failed check, whichever call reads the family."""

    @staticmethod
    def call(name, rho, clock, members, h):
        if name == "conditional_probabilities":
            return rc.conditional_probabilities(rho, members, clock, 1.0, h_system=h)
        return rc.reduce_state(rho, clock, [(q, 1.0 if i == 0 else None) for i, q in enumerate(members)], h)

    @pytest.mark.parametrize("name", ["conditional_probabilities", "reduce_state"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda n: np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),
             r"matrix is not Hermitian: max asymmetry 1\.000e\+00 > 1\.0e-08"),
            (lambda n: 0.5 * I2, "supplied operator is not a projector"),
            (lambda n: np.kron(np.diag(np.arange(n) < n // 2).astype(complex), I2),
             "projector acts on the clock factor"),
            (lambda n: np.eye(3, dtype=complex),
             r"projector shape \(3, 3\) matches neither the system \(2\) nor the full space"),
        ],
        ids=["not-hermitian", "not-projector", "acts-on-clock", "wrong-shape"],
    )
    def test_bad_second_member_raises_its_message(self, free_clock, h_z, rng, name, bad, message):
        rho = product_state(free_clock, qubit_state(rng, "factored"), "factored")
        with pytest.raises(rc.ValidationError, match=f"^{message}$"):
            self.call(name, rho, free_clock, [P_UP, bad(free_clock.n)], h_z)

    @pytest.mark.parametrize("name", ["conditional_probabilities", "reduce_state"])
    def test_first_failing_member_is_reported(self, free_clock, h_z, rng, name):
        rho = product_state(free_clock, qubit_state(rng, "factored"), "factored")
        with pytest.raises(rc.ValidationError, match="^supplied operator is not a projector$"):
            self.call(name, rho, free_clock, [P_UP, 0.5 * I2, np.eye(3)], h_z)

    def test_a_system_family_is_taken_as_built(self, free_clock, h_z, rng, monkeypatch):
        # the family hermitized and checked its members when it was built
        rho = product_state(free_clock, qubit_state(rng, "factored"), "factored")
        family = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_X))
        want = rc.conditional_probabilities(rho, list(family.projectors), free_clock, 1.0, h_system=h_z)
        stack = rc.relational._system_projectors(family, rho.space, free_clock.n)
        assert stack is family._stack and not stack.flags.writeable

        def refuse(*args):
            raise AssertionError("a family member was checked again")

        monkeypatch.setattr(rc.relational, "_norm_exceeds", refuse)
        assert np.array_equal(rc.conditional_probabilities(rho, family, free_clock, 1.0, h_system=h_z), want)

    def test_a_full_space_family_keeps_every_check(self, free_clock, h_z, rng):
        rho = product_state(free_clock, qubit_state(rng, "factored"), "factored")
        half = np.kron(np.diag(np.arange(free_clock.n) < free_clock.n // 2).astype(complex), I2)
        family = rc.ProjectorFamily(labels=("early", "late"), projectors=(half, np.eye(half.shape[0]) - half))
        with pytest.raises(rc.ValidationError, match="^projector acts on the clock factor$"):
            rc.conditional_probabilities(rho, family, free_clock, 1.0, h_system=h_z)

    def test_full_space_members_give_the_system_factor(self, free_clock, h_z, rng):
        rho = product_state(free_clock, qubit_state(rng, "factored"), "factored")
        full = [np.kron(np.eye(free_clock.n), q) for q in (P_UP, I2 - P_UP)]
        got = rc.conditional_probabilities(rho, full, free_clock, 1.0, h_system=h_z)
        assert np.array_equal(got, rc.conditional_probabilities(rho, [P_UP, I2 - P_UP], free_clock, 1.0, h_system=h_z))


class TestPhysicalTimeState:
    def test_delta_density_reproduces_unitary(self, h_z, rng):
        rho0 = qubit_state(rng)
        t_grid = np.linspace(0.0, 4.0, 401)
        got = rc.physical_time_state(rho0, h_z, rc.delta_clock_density(2.0, t_grid))
        want = rc.unitary_evolve(rho0, h_z, 2.0)
        np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-12)

    def test_trivial_dynamics_is_constant(self, rng):
        rho0 = qubit_state(rng)
        h0 = rc.Observable.from_matrix(np.zeros((2, 2)))
        t_grid = np.linspace(0.0, 4.0, 401)
        for t0 in (1.0, 2.0, 3.0):
            got = rc.physical_time_state(rho0, h0, rc.gaussian_clock_density(t0, t_grid, 0.3))
            np.testing.assert_allclose(got.matrix, rho0.matrix, atol=1e-12)

    def test_gaussian_width_sets_coherence_loss(self, h_z):
        # off-diagonal shrinks by the Gaussian characteristic function at
        # the Bohr frequency 2: |rho01(T)| = |rho01(0)| exp(-2 s^2)
        rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
        t_grid = np.linspace(0.0, 8.0, 3201)
        for s in (0.1, 0.25, 0.4):
            got = rc.physical_time_state(rho0, h_z, rc.gaussian_clock_density(4.0, t_grid, s))
            assert abs(got.matrix[0, 1]) == pytest.approx(0.5 * math.exp(-2.0 * s**2), rel=1e-5)

    def test_purity_nonincreasing_in_width(self, h_z):
        rho0 = rc.DensityOperator.from_matrix(P_PLUS, (2,))
        t_grid = np.linspace(0.0, 8.0, 3201)
        purities = [
            rc.physical_time_state(rho0, h_z, rc.gaussian_clock_density(4.0, t_grid, s)).purity()
            for s in (0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(b < a for a, b in zip(purities, purities[1:]))
        assert all(p <= 1.0 + 1e-12 for p in purities)

    @pytest.mark.parametrize("nt", [81, 1201])
    @pytest.mark.parametrize("kind", ["clock", "gaussian"])
    def test_matches_brute_force_mixture(self, free_clock, rng, kind, nt):
        # the 1201-point cases draw from their own generator: the session
        # generator's later draws stay those of the 81-point cases alone
        rng = rng if nt == 81 else np.random.default_rng(nt)
        h = oracles.random_hermitian(rng, 4)
        rho0 = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
        t_grid = np.linspace(0.0, free_clock.tau, nt)
        if kind == "clock":
            density = rc.clock_density(free_clock, 1.5, t_grid)
        else:
            density = rc.gaussian_clock_density(1.5, t_grid, 0.3)
        got = rc.physical_time_state(rho0, rc.Observable.from_matrix(h), density)
        want = oracles.brute_physical_time_state(rho0.matrix, h, density.density, t_grid)
        assert np.max(np.abs(got.matrix - want)) <= 1e-12

    @pytest.mark.parametrize("nt", [81, 1201])
    def test_effective_projector_matches_brute_heisenberg_average(self, free_clock, rng, nt):
        rng = rng if nt == 81 else np.random.default_rng(nt)  # as in test_matches_brute_force_mixture
        h = oracles.random_hermitian(rng, 4)
        u = oracles.random_unitary(rng, 4)
        q = u[:, :2] @ u[:, :2].conj().T
        t_grid = np.linspace(0.0, free_clock.tau, nt)
        got = rc.effective_projector(q, free_clock, 1.5, rc.Observable.from_matrix(h), t_grid)
        density = rc.clock_density(free_clock, 1.5, t_grid).density
        want = oracles.brute_effective_projector(q, h, density, t_grid)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("form", FORMS)
    def test_batched_states_equal_one_call_per_density(self, free_clock, form):
        rng = np.random.default_rng(9)
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 2))
        rho0 = qubit_state(rng, form)
        densities = rc.clock_densities(free_clock, [0.8, 1.6, 2.4, 3.1])
        batched = rc.relational._physical_time_states(rho0, h, densities)
        assert len(batched) == len(densities)
        for got, density in zip(batched, densities):
            want = rc.physical_time_state(rho0, h, density)
            assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-15

    def test_zero_density_rejected(self, h_z, rng):
        t_grid = np.linspace(0.0, 4.0, 101)
        density = rc.ClockDensity(t_value=2.0, t_grid=t_grid, density=np.zeros(101), norm_check=0.0)
        with pytest.raises(rc.ZeroProbabilityError):
            rc.physical_time_state(qubit_state(rng), h_z, density)

    def test_dimension_mismatch_rejected(self, rng):
        h4 = rc.Observable.from_matrix(oracles.random_hermitian(rng, 4))
        density = rc.gaussian_clock_density(2.0, np.linspace(0.0, 4.0, 101), 0.3)
        with pytest.raises(rc.ValidationError, match="dimensions differ"):
            rc.physical_time_state(qubit_state(rng), h4, density)


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

    @pytest.mark.parametrize(
        "field, t0, delta",
        [
            ("delta", 1.0, -0.3),
            ("delta", 1.0, 0.0),
            ("delta", 1.0, math.nan),
            ("delta", 1.0, math.inf),
            ("t0", math.nan, None),
            ("t0", math.inf, 0.3),
            ("t0", -math.inf, None),
        ],
    )
    def test_event_rejects_a_bad_reading_or_width(self, ideal_clock, field, t0, delta):
        # caught where the event is built, not as a zero probability or an unreachable reading later
        rho = ideal_clock.rho0.tensor(rc.DensityOperator.from_vector([0.6, 0.8], (2,)))
        message = f"reduction event {field} must be"
        with pytest.raises(ValueError, match=message):
            rc.ReductionEvent(P_UP, t0, delta)
        with pytest.raises(ValueError, match=message):
            rc.reduce_state(rho, ideal_clock, [(P_UP, t0, delta)])
        with pytest.raises(ValueError, match=message):
            rc.history_probability(rho, ideal_clock, [(P_UP, 0.5), (P_UP, t0, delta)])
        assert rc.ReductionEvent(P_UP, 1.0, 0.3).delta == 0.3
        assert rc.ReductionEvent(P_UP).t0 is None


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

    @pytest.mark.parametrize("form", FORMS)
    def test_each_factor_conditions_on_its_own_window(self, h_x, form):
        # the perfbench probabilities clock (delta_c = 0.35) with two events of
        # half-width 0.15: each factor's window is the one its reduction uses
        rng = np.random.default_rng(15)  # the session generator's later draws stay as they were
        clock = rc.build_free_particle_clock(64, mass=30.0, sigma0=0.5, delta_c=0.35, tau=2.8)
        rho = product_state(clock, qubit_state(rng, form), form)
        events = [rc.ReductionEvent(P_UP, 1.0, 0.15), rc.ReductionEvent(P_UP, 1.8, 0.15)]
        t_grid = np.linspace(0.0, clock.tau, 25)
        got = rc.history_probability(rho, clock, events, h_system=h_x, t_grid=t_grid)

        def window(t0):
            return np.diag(((clock.x >= t0 - 0.15) & (clock.x <= t0 + 0.15)).astype(complex))

        h_c, h_s = clock.h_clock.matrix, h_x.matrix
        p1 = oracles.brute_conditional_probability(rho.matrix, P_UP, window(1.0), h_c, h_s, t_grid)
        reduced = oracles.brute_reduce_state(rho.matrix, [(P_UP, 1.0)], window, h_c, h_s, t_grid)
        p2 = oracles.brute_conditional_probability(reduced, P_UP, window(1.8), h_c, h_s, t_grid)
        assert got == pytest.approx(p1 * p2, abs=1e-9)

    def test_out_of_order_readings_rejected(self, ideal_clock, h_z, rng):
        rho = ideal_clock.rho0.tensor(qubit_state(rng))
        with pytest.raises(ValueError, match="ordered"):
            rc.history_probability(rho, ideal_clock, [(P_UP, 2.0), (P_UP, 1.0)], h_system=h_z)

    @pytest.mark.parametrize("form", FORMS)
    def test_an_empty_history_is_rejected(self, ideal_clock, form):
        # as ``reduce_state`` rejects an empty event list, not a probability of 1
        rho = product_state(ideal_clock, qubit_state(np.random.default_rng(17), form), form)
        with pytest.raises(ValueError, match="at least one history event is required"):
            rc.history_probability(rho, ideal_clock, [])


def random_projector(rng, d: int, rank: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank)))
    return q @ q.conj().T


def brute_history(rho, clock, events, h_sys, t_grid) -> float:
    """The chain of brute conditional probabilities, each on the brute
    reduction of the state by the events before it."""
    return brute_history_prefixes(rho, clock, events, h_sys, t_grid)[-1]


def brute_history_prefixes(rho, clock, events, h_sys, t_grid) -> list[float]:
    """``brute_history`` of each leading part of ``events``, from one walk of
    the chain: the value of the first i events at index i - 1."""
    h_c = clock.h_clock.matrix

    def window(e):
        half = clock.delta_c if e.delta is None else e.delta
        return np.diag(((clock.x >= e.t0 - half) & (clock.x <= e.t0 + half)).astype(complex))

    totals, state = [], rho.matrix
    for i, e in enumerate(events):
        p = oracles.brute_conditional_probability(state, e.q_proj, window(e), h_c, h_sys, t_grid)
        totals.append(p * (totals[-1] if totals else 1.0))
        if i + 1 < len(events):
            state = oracles.brute_reduce_state(state, [(e.q_proj, e.t0)], lambda _: window(e), h_c, h_sys, t_grid)
    return totals


def reduce_then_condition(rho, clock, events, h, t_grid=None) -> float:
    """The chain through the package's conditioned states: each factor from
    ``_conditional_probabilities`` on the state ``reduce_state`` returns."""
    total, state = 1.0, rho
    for i, e in enumerate(events):
        total *= float(rc.relational._conditional_probabilities(state, [e.q_proj], clock, e.t0, h, t_grid, e.delta)[0])
        if i + 1 < len(events):
            state = rc.reduce_state(state, clock, [e], h, t_grid)
    return total


class TestHistoryPair:
    """The last two factors of a chain from the cores of the state before
    them: on a uniform grid, after the window cores carried the input's Gram
    factor there, whether the input is dense or factored."""

    @pytest.mark.parametrize("steps", [3, 4])
    @pytest.mark.parametrize("form", FORMS)
    def test_qubit_chain_matches_the_brute_chain(self, small_clock, h_x, form, steps):
        rng = np.random.default_rng(2301 + steps)
        rho = product_state(small_clock, qubit_state(rng, form), form)
        readings = (0.3, 0.7, 1.0, 1.3)[:steps]
        events = [rc.ReductionEvent(random_projector(rng, 2, 1), t0, 0.5 if i == 1 else None)
                  for i, t0 in enumerate(readings)]
        t_grid = np.linspace(0.0, small_clock.tau, 13)
        got = rc.history_probability(rho, small_clock, events, h_system=h_x, t_grid=t_grid)
        want = brute_history(rho, small_clock, events, h_x.matrix, t_grid)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("form, with_h, steps", [("dense", True, 4), ("factored", False, 3)])
    def test_entangled_chain_matches_the_brute_chain(self, small_clock, form, with_h, steps):
        rng = np.random.default_rng(2311 + 2 * steps + with_h)
        rho = entangled_state(rng, small_clock, 4, form)
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 4)) if with_h else None
        t_grid = np.linspace(0.0, small_clock.tau, 13)
        readings = (0.3, 0.6, 1.0, 1.2)[:steps]
        # the next-to-last projector, whose reduction the cores carry, of rank 2
        events = [rc.ReductionEvent(random_projector(rng, 4, 2 if i == steps - 2 else 1), t0, 0.45 if i == 0 else None)
                  for i, t0 in enumerate(readings)]
        got = rc.history_probability(rho, small_clock, events, h_system=h, t_grid=t_grid)
        want = brute_history(rho, small_clock, events, np.zeros((4, 4)) if h is None else h.matrix, t_grid)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("chunk", [None, 4096])
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("kind", ["pure", "rank-2", "dense"])
    def test_matches_reduce_then_condition(self, monkeypatch, kind, n, chunk):
        if chunk is not None:
            monkeypatch.setattr(rc.relational, "_CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(2331 + n)
        clock = rc.build_free_particle_clock(n, mass=30.0, sigma0=0.5, delta_c=0.35, tau=2.8)
        if kind == "pure":
            rho = clock.rho0.tensor(rc.DensityOperator.from_vector(oracles.random_unitary(rng, 2)[:, 0], (2,)))
        else:
            rho = product_state(clock, qubit_state(rng, "dense" if kind == "dense" else "factored"), kind.split("-")[0])
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 2))
        for _ in range(3):
            readings = np.sort(rng.uniform(0.6, 2.2, 3))
            events = [rc.ReductionEvent(random_projector(rng, 2, 1), float(t0)) for t0 in readings]
            for chain in (events, events[1:]):
                got = rc.history_probability(rho, clock, chain, h_system=h)
                assert got == pytest.approx(reduce_then_condition(rho, clock, chain, h), abs=1e-12)

    def test_route(self, small_clock, h_x, monkeypatch):
        rng = np.random.default_rng(2341)
        pure = entangled_state(rng, small_clock, 2, "factored")
        dense = product_state(small_clock, qubit_state(rng), "dense")
        events = [(P_UP, 0.3), (P_PLUS, 0.7), (P_UP, 1.0)]
        chain = [rc.ReductionEvent(*e) for e in events]
        want = [reduce_then_condition(pure, small_clock, chain, h_x),
                reduce_then_condition(dense, small_clock, chain[:2], h_x)]
        dense_three = reduce_then_condition(dense, small_clock, chain, h_x)

        def refuse(*args, **kwargs):
            raise AssertionError("a route this chain must not take")

        monkeypatch.setattr(rc.relational, "_window_sandwich", refuse)
        got = [rc.history_probability(pure, small_clock, events, h_system=h_x),
               rc.history_probability(dense, small_clock, events[:2], h_system=h_x)]
        assert got == pytest.approx(want, abs=1e-12)
        # on a uniform grid a chain reduces no state, however short, whether its input is dense or factored
        monkeypatch.setattr(rc.relational, "reduce_state", refuse)
        two = rc.history_probability(pure, small_clock, events[:2], h_system=h_x)
        assert two == pytest.approx(reduce_then_condition(pure, small_clock, chain[:2], h_x), abs=1e-12)
        three = rc.history_probability(dense, small_clock, events, h_system=h_x)
        assert three == pytest.approx(dense_three, abs=1e-12)
        monkeypatch.undo()
        # on a grid that is not uniform the overlaps do not depend on t - s alone
        monkeypatch.setattr(rc.relational, "_history_chain", refuse)
        uneven = np.linspace(0.0, small_clock.tau, 13) ** 1.1 / small_clock.tau**0.1
        assert rc.relational._uniform(small_clock.default_t_grid()) and not rc.relational._uniform(uneven)
        three = rc.history_probability(pure, small_clock, events, h_system=h_x, t_grid=uneven)
        assert three == pytest.approx(reduce_then_condition(pure, small_clock, chain, h_x, uneven), abs=1e-12)

    def test_error_paths(self, small_clock):
        up = rc.DensityOperator.from_matrix(P_UP, (2,))
        rho = product_state(small_clock, up, "dense")
        p_down = I2 - P_UP
        # the first factor vanishes exactly without h; a vanishing last factor returns ~0
        assert rc.history_probability(rho, small_clock, [(p_down, 0.3), (P_UP, 0.7)]) == 0.0
        assert rc.history_probability(rho, small_clock, [(P_UP, 0.3), (p_down, 0.7)]) == pytest.approx(0.0, abs=1e-15)
        # a window between two grid nodes
        empty = rc.ReductionEvent(P_UP, 0.7, 0.1 * small_clock.dx)
        assert not small_clock._window_mask(empty.t0, empty.delta).any()
        with pytest.raises(rc.UnreachableReadingError):
            rc.history_probability(rho, small_clock, [(P_UP, 0.3), empty])
        with pytest.raises(rc.UnreachableReadingError):
            rc.history_probability(rho, small_clock, [(P_UP, 0.3), (P_UP, 40.0)])
        for events in ([(0.5 * I2, 0.3), (P_UP, 0.7)], [(P_UP, 0.3), (0.5 * I2, 0.7)]):
            with pytest.raises(rc.ValidationError, match="supplied operator is not a projector"):
                rc.history_probability(rho, small_clock, events)


CHAIN_READINGS = (0.3, 0.55, 0.8, 1.05, 1.3)


def chain_state(rng, clock, kind):
    if kind == "rank-1":
        return clock.rho0.tensor(rc.DensityOperator.from_vector(oracles.random_unitary(rng, 2)[:, 0], (2,)))
    form = "dense" if kind == "dense" else "factored"
    return product_state(clock, qubit_state(rng, form), form)


@functools.lru_cache(maxsize=None)
def chain_case(kind, with_h):
    """The input, h, five events on the 40-node clock's 13-point grid (the
    second on a wider window, so that the windows differ in size) and the
    brute chain of each leading part of them, computed once for all chunk
    sizes and chain lengths."""
    clock = rc.build_free_particle_clock(40, mass=30.0, sigma0=0.5, delta_c=0.35, tau=1.5)
    rng = np.random.default_rng(2401 + 2 * ("rank-1", "rank-2", "dense").index(kind) + with_h)
    rho = chain_state(rng, clock, kind)
    h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 2)) if with_h else None
    events = [rc.ReductionEvent(random_projector(rng, 2, 1), t0, 0.5 if i == 1 else None)
              for i, t0 in enumerate(CHAIN_READINGS)]
    t_grid = np.linspace(0.0, clock.tau, 13)
    brute = brute_history_prefixes(rho, clock, events, np.zeros((2, 2)) if h is None else h.matrix, t_grid)
    return clock, rho, h, events, t_grid, brute


class TestHistoryChain:
    """Whole chains carried from window to window on a uniform grid: each
    factor against the brute chain and against the package's own conditioned
    states, with chains long enough that the carried factor is compressed
    (4 and 5 events), and with chunks small enough that the carry and the
    marginal walk several of them."""

    @pytest.mark.parametrize("chunk", [None, 300])
    @pytest.mark.parametrize("with_h", [False, True])
    @pytest.mark.parametrize("kind", ["rank-1", "rank-2", "dense"])
    @pytest.mark.parametrize("steps", [2, 3, 4, 5])
    def test_matches_the_brute_chain_and_reduce_then_condition(self, monkeypatch, steps, kind, with_h, chunk):
        clock, rho, h, events, t_grid, brute = chain_case(kind, with_h)
        if chunk is not None:
            monkeypatch.setattr(rc.relational, "_CHUNK_ENTRIES", chunk)
        got = rc.history_probability(rho, clock, events[:steps], h_system=h, t_grid=t_grid)
        assert got == pytest.approx(brute[steps - 1], abs=1e-9)
        assert got == pytest.approx(reduce_then_condition(rho, clock, events[:steps], h, t_grid), abs=1e-12)

    @pytest.mark.parametrize("nt, first", [(13, 6), (5, 5)])
    def test_a_factor_carried_again_keeps_at_most_its_rows(self, monkeypatch, small_clock, nt, first):
        # three nodes a window and a qubit: a factor carried once more keeps at most
        # 6 columns per time, nt of them from a pure input's first reduction
        seen, carry_ = [], rc.relational._carry

        def carry(z, o, lift, gram):
            out = carry_(z, o, lift, gram)
            seen.append((gram, out.shape))
            return out

        monkeypatch.setattr(rc.relational, "_carry", carry)
        rng = np.random.default_rng(2471)
        rho = chain_state(rng, small_clock, "rank-1")
        events = [(random_projector(rng, 2, 1), t0) for t0 in CHAIN_READINGS]
        t_grid = np.linspace(0.0, small_clock.tau, nt)
        got = rc.history_probability(rho, small_clock, events, t_grid=t_grid)
        assert seen == [(False, (nt, first, 2, 3)), (False, (nt, 6, 2, 3)), (True, (nt, 2, 3, 2, 3))]
        chain = [rc.ReductionEvent(*e) for e in events]
        assert got == pytest.approx(reduce_then_condition(rho, small_clock, chain, None, t_grid), abs=1e-12)
        brute = brute_history(rho, small_clock, chain, np.zeros((2, 2)), t_grid)
        assert got == pytest.approx(brute, abs=1e-9)


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

        # a dim-8 master-equation trajectory reads back value for value
        h8 = rc.Observable.from_matrix(oracles.random_hermitian(rng, 8))
        rho8 = rc.DensityOperator.from_matrix(oracles.random_density(rng, 8), (8,))
        law = rc.AccuracyLaw(exponent_a=1 / 3, t_planck=1e-2)
        traj = rc.master_evolve(rho8, rc.EvolutionSetup(h_system=h8, rate_source=law), 1.0)
        assert len(traj) >= 400
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# row-major matrix entries: re_i_j, im_i_j"
        expected = ["T"]
        for i in range(8):
            for j in range(8):
                expected += [f"re_{i}_{j}", f"im_{i}_{j}"]
        assert lines[1] == ",".join(expected)
        assert len(lines) == 2 + len(traj)
        for line, t, state in zip(lines[2:], traj.times, traj.states):
            values = line.split(",")
            assert float(values[0]) == t
            for k, entry in enumerate(state.matrix.ravel()):
                assert float(values[1 + 2 * k]) == entry.real
                assert float(values[2 + 2 * k]) == entry.imag

    @staticmethod
    def generic_csv(traj, path):
        # one repr per float, as the writer formatted every entry before Hermitian pairs shared theirs
        d = traj.states[0].dim
        cols = ["T"] + [f"{part}_{i}_{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
        entries = np.stack([st.matrix for st in traj.states]).view(np.float64).reshape(len(traj), -1)
        table = np.column_stack([traj.times, entries])
        rc.relational._write_csv(path, cols, table, comment="# row-major matrix entries: re_i_j, im_i_j")

    @pytest.mark.parametrize("d", range(2, 9))
    def test_hermitian_pairs_give_the_generic_bytes(self, tmp_path, d):
        rng = np.random.default_rng(d)  # the session generator's later draws stay as they were
        states = []
        for k in range(12):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = g @ g.conj().T + 8 * d * np.eye(d)
            m /= m.trace().real
            if k % 4 == 0:
                m = m.real.astype(complex)  # every imaginary part zero
            elif k % 4 == 1:
                # signed zeros: -0.0 on both sides of a pair, and 0.0 above -0.0;
                # hermitizing keeps -0.0 beside a negative real part
                m[0, d - 1], m[d - 1, 0] = complex(m[0, d - 1].real, -0.0), complex(m[d - 1, 0].real, -0.0)
                re = -abs(m[0, 1].real)
                m[0, 1], m[1, 0] = complex(re, 0.0), complex(re, -0.0)
            elif k % 4 == 2:
                states.append(rc.DensityOperator.from_vector(g[:, 0], (d,)))  # a Gram factor's matrix
                continue
            states.append(rc.DensityOperator.from_matrix(m, (d,)))
        traj = rc.Trajectory(times=0.1 * np.arange(len(states)), states=tuple(states))
        self.generic_csv(traj, tmp_path / "generic.csv")
        text = (tmp_path / "generic.csv").read_bytes()
        assert b",-0.0," in text and b",0.0," in text
        # the rows of the pairing itself: to_csv takes it only from 1024 entries on
        lines = rc.relational._hermitian_lines(traj.times, np.stack([st.matrix for st in traj.states]))
        assert text.split(b"\n", 2)[2] == "".join(line + "\n" for line in lines).encode()
        # a long trajectory of these states takes the pairing in to_csv
        long = rc.Trajectory(times=0.01 * np.arange(30 * len(states)), states=tuple(states) * 30)
        assert np.stack([st.matrix for st in long.states]).size >= 1024
        long.to_csv(tmp_path / "shared.csv")
        self.generic_csv(long, tmp_path / "generic.csv")
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()

    def test_a_stack_that_does_not_mirror_takes_the_generic_writer(self):
        rng = np.random.default_rng(3)
        m = rc.DensityOperator.from_matrix(oracles.random_density(rng, 3), (3,)).matrix[None].copy()
        times = np.zeros(1)
        assert rc.relational._hermitian_lines(times, m) is not None
        m[0, 2, 0] = np.nextafter(m[0, 2, 0].real, 1.0) + 1j * m[0, 2, 0].imag
        assert rc.relational._hermitian_lines(times, m) is None

    def test_preset_trajectories_give_the_generic_bytes(self, tmp_path, monkeypatch):
        from relclock import cli

        shared = rc.Trajectory.to_csv
        written = []

        def both(traj, path):
            shared(traj, path)
            self.generic_csv(traj, tmp_path / "generic.csv")
            assert open(path, "rb").read() == (tmp_path / "generic.csv").read_bytes()
            written.append(path)

        monkeypatch.setattr(rc.Trajectory, "to_csv", both)
        for preset in ("conditional_identity", "qubit_decay", "three_spin", "detect_event",
                       "zurek_n8", "revival_suppression", "physical_evolve"):
            cli.run_config(cli.load_config(cli.preset_path(preset)), tmp_path / preset)
        assert written
