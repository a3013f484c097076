import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

import relclock as rc
from relclock import fixtures
from relclock.events import pinch

import oracles
from inputs import FORMS, entangled_state, product_state, qubit_state

I2 = np.eye(2, dtype=complex)
P_UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def z_family():
    return rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_Z))


class TestRhoMod:
    def test_ideal_clock_collapses_window_and_evolves_system(self, ideal_clock, h_z, rng):
        rho_sys = rc.DensityOperator.from_matrix(oracles.random_density(rng, 2), (2,))
        rho = ideal_clock.rho0.tensor(rho_sys)
        t0 = 14 * ideal_clock.dx
        out = rc.rho_mod(rho, ideal_clock, t0, h_system=h_z)
        sys_part = rc.partial_trace(out, [1])
        want_sys = rc.unitary_evolve(rho_sys, h_z, t0)
        np.testing.assert_allclose(sys_part.matrix, want_sys.matrix, atol=1e-9)
        clock_part = rc.partial_trace(out, [0])
        node = int(round(t0 / ideal_clock.dx))
        assert clock_part.matrix[node, node].real == pytest.approx(1.0, abs=1e-9)

    def test_trivial_dynamics_leaves_system_unchanged(self, free_clock, rng):
        rho_sys = rc.DensityOperator.from_matrix(oracles.random_density(rng, 2), (2,))
        rho = free_clock.rho0.tensor(rho_sys)
        out = rc.rho_mod(rho, free_clock, 1.5)
        np.testing.assert_allclose(rc.partial_trace(out, [1]).matrix, rho_sys.matrix, atol=1e-9)

    @pytest.mark.parametrize("form", FORMS)
    def test_matches_brute_force_sandwich(self, free_clock, h_z, rng, form):
        rho = product_state(free_clock, qubit_state(rng, form), form)
        t_grid = np.linspace(0.0, free_clock.tau, 41)
        got = rc.rho_mod(rho, free_clock, 1.5, h_system=h_z, t_grid=t_grid, picture="heisenberg")
        want = oracles.brute_reduce_state(
            rho.matrix,
            [(None, 1.5)],
            free_clock.window_projector,
            free_clock.h_clock.matrix,
            h_z.matrix,
            t_grid,
        )
        np.testing.assert_allclose(got.matrix, want, atol=1e-9)


class TestRhoEvent:
    def test_identity_family_equals_rho_mod(self, free_clock, h_z, rng):
        rho_sys = rc.DensityOperator.from_matrix(oracles.random_density(rng, 2), (2,))
        rho = free_clock.rho0.tensor(rho_sys)
        fam = rc.ProjectorFamily(labels=("all",), projectors=(I2,), complete=True)
        a = rc.rho_event(rho, fam, free_clock, 1.5, h_system=h_z)
        b = rc.rho_mod(rho, free_clock, 1.5, h_system=h_z)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-10)

    def test_block_diagonal_state_is_fixed_point(self, ideal_clock):
        rho_sys = rc.DensityOperator.from_matrix(np.diag([0.7, 0.3]).astype(complex), (2,))
        rho = ideal_clock.rho0.tensor(rho_sys)
        t0 = 10 * ideal_clock.dx
        a = rc.rho_event(rho, z_family(), ideal_clock, t0)
        b = rc.rho_mod(rho, ideal_clock, t0)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-10)

    def test_pinching_zeroes_coherence(self, ideal_clock):
        rho_sys = rc.DensityOperator.from_matrix(
            np.array([[0.5, 0.4], [0.4, 0.5]]), (2,)
        )
        rho = ideal_clock.rho0.tensor(rho_sys)
        t0 = 10 * ideal_clock.dx
        out = rc.rho_event(rho, z_family(), ideal_clock, t0)
        sys_part = rc.partial_trace(out, [1]).matrix
        assert abs(sys_part[0, 1]) <= 1e-10
        assert sys_part[0, 0].real == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("form", FORMS)
    def test_entangled_state_matches_full_space_sandwich(self, small_clock, rng, form):
        clock = small_clock
        rho = entangled_state(rng, clock, 4, form)
        h_sys = oracles.random_hermitian(rng, 4)
        u = oracles.random_unitary(rng, 4)
        p = u @ np.diag([1.0, 1.0, 0.0, 0.0]) @ u.conj().T
        fam = rc.ProjectorFamily(labels=("p", "q"), projectors=(p, np.eye(4) - p))
        t_grid = np.linspace(0.0, clock.tau, 17)
        got = rc.rho_event(
            rho, fam, clock, 1.0, h_system=rc.Observable.from_matrix(h_sys), t_grid=t_grid,
            picture="heisenberg",
        )
        want = oracles.brute_rho_event(
            rho.matrix, fam.projectors, clock.window_projector(1.0), clock.h_clock.matrix, h_sys, t_grid
        )
        np.testing.assert_allclose(got.matrix, want, atol=1e-9)

    def test_window_without_grid_nodes_raises(self):
        # a window a fifth of the grid spacing (tau / 44) wide, centred between two nodes
        clock = rc.build_ideal_clock(48, tau=4.0, delta_c=0.1 * 4.0 / 44)
        rho = clock.rho0.tensor(rc.DensityOperator.from_vector([0.6, 0.8], (2,)))
        with pytest.raises(rc.ValidationError, match="zero probability"):
            rc.rho_event(rho, z_family(), clock, 10.5 * clock.dx)

    def test_incomplete_family_rejected(self, ideal_clock, rng):
        rho = ideal_clock.rho0.tensor(
            rc.DensityOperator.from_matrix(oracles.random_density(rng, 2), (2,))
        )
        fam = rc.ProjectorFamily(labels=("up",), projectors=(P_UP,), complete=False)
        with pytest.raises(rc.ValidationError, match="complete"):
            rc.rho_event(rho, fam, ideal_clock, 10 * ideal_clock.dx)

    @pytest.mark.parametrize("conditioned", ["rho_mod", "rho_event"])
    def test_picture_is_checked_before_the_sandwich(self, ideal_clock, monkeypatch, conditioned):
        def sandwich(*args):
            raise AssertionError("the window sandwich ran before the picture was checked")

        monkeypatch.setattr(rc.relational, "_sandwich_state", sandwich)
        monkeypatch.setattr(rc.events, "_sandwich_state", sandwich)
        rho = ideal_clock.rho0.tensor(rc.DensityOperator.maximally_mixed((2,)))
        extra = (z_family(),) if conditioned == "rho_event" else ()
        with pytest.raises(ValueError, match="unknown picture 'bogus'"):
            getattr(rc, conditioned)(rho, *extra, ideal_clock, 10 * ideal_clock.dx, picture="bogus")

    def test_pinch_is_idempotent(self, rng):
        rho = oracles.random_density(rng, 2)
        fam = z_family()
        once = pinch(rho, fam)
        twice = pinch(once, fam)
        assert np.max(np.abs(twice - once)) <= 1e-10


class TestReadingFrame:
    """The default picture labels a conditioned state by the reading T0: it is
    U0 X U0^dagger for the Heisenberg-picture sandwich X and
    U0 = e^{-i(H_c (x) I + I (x) h) T0}.  The tests draw from their own
    generators, so the session generator's draws for the tests after them
    stay as they were."""

    @pytest.mark.parametrize("conditioned", ["rho_mod", "rho_event"])
    @pytest.mark.parametrize("with_h", [True, False])
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("clock_name", ["small_clock", "ideal_clock"])
    def test_matches_the_rotated_brute_force_sandwich(self, request, clock_name, form, with_h, conditioned):
        # 17 times keep Y at 17 |S| k <= 68 columns of 80 or 96 rows, so the
        # factored form takes the factor kernel and the dense one the dense sandwich
        rng = np.random.default_rng(2600)
        clock = request.getfixturevalue(clock_name)
        t0 = 0.8 if clock_name == "small_clock" else 14 * clock.dx
        rho = product_state(clock, qubit_state(rng, form), form)
        h_sys = oracles.random_hermitian(rng, 2) if with_h else np.zeros((2, 2), dtype=complex)
        h = rc.Observable.from_matrix(h_sys) if with_h else None
        t_grid = np.linspace(0.0, clock.tau, 17)
        family = z_family()
        if conditioned == "rho_mod":
            got = rc.rho_mod(rho, clock, t0, h_system=h, t_grid=t_grid)
            heisenberg = oracles.brute_reduce_state(
                rho.matrix, [(None, t0)], clock.window_projector, clock.h_clock.matrix, h_sys, t_grid
            )
        else:
            got = rc.rho_event(rho, family, clock, t0, h_system=h, t_grid=t_grid)
            heisenberg = oracles.brute_rho_event(
                rho.matrix, family.projectors, clock.window_projector(t0), clock.h_clock.matrix, h_sys, t_grid
            )
        assert (got.factor is not None) is (form == "factored")
        u0 = expm(-1j * t0 * (np.kron(clock.h_clock.matrix, I2) + np.kron(np.eye(clock.n), h_sys)))
        np.testing.assert_allclose(got.matrix, u0 @ heisenberg @ u0.conj().T, atol=1e-9)

    @pytest.mark.parametrize("picture", ["schrodinger", "heisenberg"])
    def test_a_nan_reading_is_unreachable(self, free_clock, h_z, picture):
        # raised by the window, before a NaN frame phase reaches the state
        rho = free_clock.rho0.tensor(rc.DensityOperator.from_vector([0.6, 0.8], (2,)))
        with pytest.raises(rc.UnreachableReadingError, match="reading nan"):
            rc.rho_mod(rho, free_clock, math.nan, h_system=h_z, picture=picture)
        with pytest.raises(rc.UnreachableReadingError, match="reading nan"):
            rc.rho_event(rho, z_family(), free_clock, math.nan, h_system=h_z, picture=picture)

    @pytest.mark.parametrize("conditioned", ["rho_mod", "rho_event"])
    def test_dense_output_is_checked_once_and_c_ordered(self, free_clock, h_z, monkeypatch, conditioned):
        # a dense input keeps dense conditioned states, which leave the window kernel in their frame
        rho = product_state(free_clock, qubit_state(np.random.default_rng(2700)), "dense")
        extra = (z_family(),) if conditioned == "rho_event" else ()
        checked = []
        check = rc.states._check_density_stack
        monkeypatch.setattr(
            rc.states, "_check_density_stack", lambda m: checked.append(m.flags.c_contiguous) or check(m)
        )
        got = getattr(rc, conditioned)(rho, *extra, free_clock, 1.5, h_system=h_z)
        assert got.factor is None
        assert checked == [True]


class TestFactoredInput:
    """A Gram-factored state and the dense state of the same matrix condition alike."""

    @pytest.fixture(params=["product", "entangled"])
    def pair(self, request, free_clock, rng):
        if request.param == "product":
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            factored = free_clock.rho0.tensor(rc.DensityOperator.from_vector(psi, (2,)))
        else:
            factored = entangled_state(rng, free_clock, 2, "factored")
        assert factored.factor is not None
        return factored, rc.DensityOperator.from_matrix(factored.matrix, factored.space)

    def test_every_conditioned_quantity_agrees(self, pair, free_clock, h_z):
        factored, dense = pair
        family = rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_X))
        events = [(family.projectors[0], 1.5), (None, 1.7)]
        clock = free_clock
        calls = {
            "conditional_probabilities": lambda r: rc.conditional_probabilities(r, family, clock, 1.5, h_z),
            "reduce_state": lambda r: rc.reduce_state(r, clock, events, h_z).matrix,
            "rho_mod": lambda r: rc.rho_mod(r, clock, 1.5, h_z).matrix,
            "rho_event": lambda r: rc.rho_event(r, family, clock, 1.5, h_z).matrix,
            "distinguishability": lambda r: rc.detect_event(
                r, family, clock, 1.5, 10, 0.3, h_z
            ).distinguishability,
            "history_probability": lambda r: rc.history_probability(
                r, clock, [events[0], (P_UP, 2.0)], h_z
            ),
        }
        for name, call in calls.items():
            err = np.max(np.abs(np.asarray(call(factored)) - np.asarray(call(dense))))
            assert err <= 1e-12, name


class TestDistinguishability:
    def test_equal_states(self, rng):
        rho = rc.DensityOperator.from_matrix(oracles.random_density(rng, 3), (3,))
        assert rc.distinguishability(rho, rho) <= 1e-10

    def test_classical_flip(self):
        a = rc.DensityOperator.from_matrix(np.diag([0.7, 0.3]).astype(complex), (2,))
        b = rc.DensityOperator.from_matrix(np.diag([0.3, 0.7]).astype(complex), (2,))
        assert rc.distinguishability(a, b) == pytest.approx(0.4, abs=1e-12)

    def test_symmetry_and_half_trace_norm(self, rng):
        a = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
        b = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
        d_ab = rc.distinguishability(a, b)
        d_ba = rc.distinguishability(b, a)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        half_norm = 0.5 * np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum()
        assert d_ab == pytest.approx(half_norm, abs=1e-12)

    def test_exhaustive_projector_maximization(self, rng):
        for _ in range(10):
            a = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
            b = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
            got = rc.distinguishability(a, b)
            want = oracles.brute_max_projector_gap(a.matrix, b.matrix)
            assert got == pytest.approx(want, abs=1e-10)

    def test_never_increases_under_coarsening(self, ideal_clock, rng):
        # merging outcome projectors can only blur the pinched state less
        t0 = 10 * ideal_clock.dx
        obs = rc.Observable.from_matrix(np.diag([0.0, 1.0, 2.0, 3.0]))
        fine = rc.projector_family(obs)
        coarse = rc.ProjectorFamily(
            labels=("lo", "hi"),
            projectors=(
                fine.projectors[0] + fine.projectors[1],
                fine.projectors[2] + fine.projectors[3],
            ),
        )
        for _ in range(5):
            rho_sys = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (4,))
            rho = ideal_clock.rho0.tensor(rho_sys)
            base = rc.rho_mod(rho, ideal_clock, t0)
            d_fine = rc.distinguishability(base, rc.rho_event(rho, fine, ideal_clock, t0))
            d_coarse = rc.distinguishability(base, rc.rho_event(rho, coarse, ideal_clock, t0))
            assert d_coarse <= d_fine + 1e-10

    def test_dimension_mismatch(self, rng):
        a = rc.DensityOperator.maximally_mixed((2,))
        b = rc.DensityOperator.maximally_mixed((3,))
        with pytest.raises(rc.ValidationError):
            rc.distinguishability(a, b)


class TestDetectEvent:
    def test_isolated_coherent_qubit_produces_no_event(self, ideal_clock):
        rho_sys = rc.DensityOperator.from_matrix(
            0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]), (2,)
        )
        rho = ideal_clock.rho0.tensor(rho_sys)
        rec = rc.detect_event(
            rho, z_family(), ideal_clock, 10 * ideal_clock.dx, n_particles=10, alpha=0.3
        )
        assert not rec.event_occurred
        assert rec.distinguishability == pytest.approx(0.5, abs=1e-9)
        assert rec.epsilon == pytest.approx(math.exp(-3.0), rel=1e-12)
        assert rec.outcome_probabilities == {}

    def test_dephased_fixture_produces_event(self, ideal_clock):
        model = rc.make_incommensurate_model(10)
        rho_sys = rc.reduced_system_state(model, 7.7)
        rho = ideal_clock.rho0.tensor(rho_sys)
        rec = rc.detect_event(
            rho, z_family(), ideal_clock, 10 * ideal_clock.dx, n_particles=10, alpha=0.3
        )
        assert rec.event_occurred
        assert rec.distinguishability == pytest.approx(abs(rho_sys.matrix[0, 1]), rel=1e-6)
        assert sum(rec.outcome_probabilities.values()) == pytest.approx(1.0, abs=1e-8)
        assert rec.actualized_properties == ("observable",)

    def test_fully_decohered_state_is_event(self, ideal_clock):
        rho_sys = rc.DensityOperator.from_matrix(np.diag([0.6, 0.4]).astype(complex), (2,))
        rho = ideal_clock.rho0.tensor(rho_sys)
        rec = rc.detect_event(
            rho, z_family(), ideal_clock, 10 * ideal_clock.dx, n_particles=3, alpha=0.3
        )
        assert rec.event_occurred
        assert rec.distinguishability <= 1e-9

    def test_candidates_record_the_actualized_sub_properties(self):
        clock = rc.build_ideal_clock(32, tau=4.0)
        rho = clock.rho0.tensor(rc.DensityOperator.from_matrix(np.diag([0.3, 0.7]), (2,)))
        candidates = [
            ("z", fixtures.pointer_family_z()),
            ("x", rc.projector_family(rc.Observable.from_matrix(rc.SIGMA_X))),
        ]
        rec = rc.detect_event(
            rho, fixtures.pointer_family_z(), clock, 2.0, n_particles=10, alpha=0.3, candidates=candidates
        )
        assert rec.event_occurred
        assert rec.actualized_properties == ("z",)

    def test_record_serialization_round_trip(self, ideal_clock):
        rho = ideal_clock.rho0.tensor(rc.DensityOperator.maximally_mixed((2,)))
        rec = rc.detect_event(
            rho, z_family(), ideal_clock, 10 * ideal_clock.dx, n_particles=5, alpha=0.3
        )
        payload = json.loads(rec.to_json())
        assert payload["event_occurred"] == rec.event_occurred
        assert payload["N_particles"] == 5
        assert payload["metadata"]["clock_ambiguity_width"] == pytest.approx(0.0, abs=1e-9)


class TestFusedDetection:
    """``detect_event`` on a Gram-factored input builds neither conditioned state."""

    @pytest.mark.parametrize("rank, chunk", [(1, None), (1, 4096), (2, None)])
    def test_matches_the_conditioned_states(self, free_clock, rng, monkeypatch, rank, chunk):
        # nt = 70: at rank 1, Z has 140 columns for 256 rows and its R factor is
        # taken (in two blocks of rows with the small chunk); at rank 2 it has
        # 280 columns and Z K Z^dagger is formed
        if chunk is not None:
            monkeypatch.setattr(rc.events, "_CHUNK_ENTRIES", chunk)
        g = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
        rho = free_clock.rho0.tensor(rc.DensityOperator.from_factor(g / np.linalg.norm(g), (2,)))
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 2))
        family = z_family()
        t_grid = free_clock.default_t_grid()
        assert t_grid.size == 70
        d, probs = rc.events._event_gap(rho, family, free_clock, 1.5, h, t_grid)
        modified = rc.rho_mod(rho, free_clock, 1.5, h)
        assert abs(d - rc.distinguishability(modified, rc.rho_event(rho, family, free_clock, 1.5, h))) <= 1e-12
        want = rc.conditional_probabilities(rho, family, free_clock, 1.5, h)
        np.testing.assert_allclose(probs, want, rtol=0.0, atol=1e-12)
        assert rc.detect_event(rho, family, free_clock, 1.5, 10, 0.3, h).distinguishability == d


def refuse(*args, **kwargs):
    raise AssertionError("this branch must not run")


class TestConservedDetection:
    """A pair of members that commute with h has P(t) = P, and ``detect_event``
    takes the nuclear norm of the off-diagonal block of rho_mod."""

    T0 = 1.5

    @staticmethod
    def case(rng, d, rank, h_kind):
        # h = sigma_z (x) I, or a random h diagonal in the family's random basis
        basis = np.eye(d, dtype=complex) if h_kind == "sigma_z" else oracles.random_unitary(rng, d)
        p = basis[:, :rank] @ basis[:, :rank].conj().T
        family = rc.ProjectorFamily(labels=("in", "out"), projectors=(p, np.eye(d) - p))
        if h_kind == "none":
            return family, None
        if h_kind == "sigma_z":
            return family, rc.Observable.from_matrix(np.kron(rc.SIGMA_Z, np.eye(d // 2)))
        return family, rc.Observable.from_matrix(basis @ np.diag(rng.normal(size=d)) @ basis.conj().T)

    @staticmethod
    def state(rng, clock, d, k):
        # entangled with the clock: a random Gram factor of rank k on the full space
        f = rng.normal(size=(clock.n * d, k)) + 1j * rng.normal(size=(clock.n * d, k))
        return rc.DensityOperator.from_factor(f / np.linalg.norm(f), (clock.n, d))

    def check_branches(self, clock, rho, family, h):
        t_grid = clock._t_grid(None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rc.events, "_pinching_gap", refuse)
            d, probs = rc.events._event_gap(rho, family, clock, self.T0, h, t_grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rc.events, "_conserved", lambda family, h: False)
            d_general, probs_general = rc.events._event_gap(rho, family, clock, self.T0, h, t_grid)
        assert abs(d - d_general) <= 1e-12
        np.testing.assert_allclose(probs, probs_general, rtol=0.0, atol=1e-12)
        # the two-state branch: both conditioned states, compared densely
        modified = rc.rho_mod(rho, clock, self.T0, h, picture="heisenberg")
        pinched = rc.rho_event(rho, family, clock, self.T0, h, picture="heisenberg")
        assert abs(d - rc.distinguishability(modified, pinched)) <= 1e-12
        want = rc.conditional_probabilities(rho, family, clock, self.T0, h)
        np.testing.assert_allclose(probs, want, rtol=0.0, atol=1e-12)
        return d

    @pytest.mark.parametrize("h_kind", ["none", "sigma_z", "diagonal"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d, rank", [(2, 1), (4, 1), (4, 2)])
    def test_matches_the_general_and_the_dense_branch(self, free_clock, rng, d, rank, k, h_kind):
        # nt = 70 on 128 nodes: Y_a has 128 rank rows for 70 k columns, so it is
        # tall (QR) at k = 1 and wide (taken as it is) at k = 3
        family, h = self.case(rng, d, rank, h_kind)
        rho = self.state(rng, free_clock, d, k)
        d_fast = self.check_branches(free_clock, rho, family, h)
        assert rc.detect_event(rho, family, free_clock, self.T0, 10, 0.3, h).distinguishability == d_fast

    @pytest.mark.parametrize("d, rank", [(2, 1), (4, 1), (4, 2)])
    def test_row_blocks(self, free_clock, rng, monkeypatch, d, rank):
        # a small chunk splits each tall Y_a into several blocks of clock nodes
        family, h = self.case(rng, d, rank, "diagonal")
        rho = self.state(rng, free_clock, d, 1)
        whole, _ = rc.events._event_gap(rho, family, free_clock, self.T0, h, free_clock._t_grid(None))
        monkeypatch.setattr(rc.events, "_CHUNK_ENTRIES", 4096)
        blocks, blocked_r = [], rc.events._blocked_r

        def counting(n, d_rows, m, rows_of):
            starts = []
            r = blocked_r(n, d_rows, m, lambda start, b: starts.append(start) or rows_of(start, b))
            blocks.append((d_rows, len(starts)))
            return r

        monkeypatch.setattr(rc.events, "_blocked_r", counting)
        d_fast = self.check_branches(free_clock, rho, family, h)
        # the first two calls are the conserved branch's, one per isometry
        assert [b[0] for b in blocks[:2]] == [rank, d - rank]
        assert all(b[1] > 1 for b in blocks[:2])
        assert abs(d_fast - whole) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    @pytest.mark.parametrize("coupling, conserved", [(0.5, True), (1.5, False)])
    def test_commutator_tolerance(self, free_clock, rng, monkeypatch, scale, coupling, conserved):
        # ||[P_up, h]|| = coupling 1e-12 scale against the bound 1e-12 max(1, ||h||)
        h = rc.Observable.from_matrix(scale * (rc.SIGMA_Z + coupling * 1e-12 * rc.SIGMA_X))
        family = fixtures.pointer_family_z()
        rho = self.state(rng, free_clock, 2, 1)
        assert rc.events._conserved(family, h) is conserved
        monkeypatch.setattr(rc.events, "_pinching_gap" if conserved else "_off_diagonal_gap", refuse)
        rec = rc.detect_event(rho, family, free_clock, self.T0, 10, 0.3, h)
        monkeypatch.undo()
        # h differs from a multiple of sigma_z, which leaves d as it is without h, by 1e-12
        plain = rc.detect_event(rho, family, free_clock, self.T0, 10, 0.3)
        assert abs(rec.distinguishability - plain.distinguishability) <= 1e-9

    @pytest.mark.parametrize("members", [2, 3])
    def test_other_families_take_the_general_branch(self, free_clock, rng, monkeypatch, members):
        # a random h does not commute with a pair; three members never take the shortcut
        d = 4
        basis = oracles.random_unitary(rng, d)
        cuts = [0, 1, d] if members == 2 else [0, 1, 2, d]
        projectors = [basis[:, a:b] @ basis[:, a:b].conj().T for a, b in zip(cuts, cuts[1:])]
        family = rc.ProjectorFamily(labels=tuple(range(members)), projectors=tuple(projectors))
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, d)) if members == 2 else None
        rho = self.state(rng, free_clock, d, 1)
        monkeypatch.setattr(rc.events, "_off_diagonal_gap", refuse)
        rec = rc.detect_event(rho, family, free_clock, self.T0, 10, 0.3, h)
        monkeypatch.undo()
        modified = rc.rho_mod(rho, free_clock, self.T0, h, picture="heisenberg")
        pinched = rc.rho_event(rho, family, free_clock, self.T0, h, picture="heisenberg")
        assert abs(rec.distinguishability - rc.distinguishability(modified, pinched)) <= 1e-12


class TestDenseDetection:
    """``detect_event`` on a dense input compares the two conditioned states."""

    def test_matches_the_fused_path_and_the_schrodinger_frame(self, monkeypatch):
        clock = rc.build_ideal_clock(32, tau=4.0)
        twin = clock.rho0.tensor(rc.reduced_system_state(rc.make_incommensurate_model(10), 7.7))
        rho = rc.DensityOperator.from_matrix(twin.matrix, twin.space)
        family = fixtures.pointer_family_z()
        fused = rc.detect_event(twin, family, clock, 2.0, n_particles=10, alpha=0.3)
        # the dense input takes the window sandwich, not the fused pass, and
        # asks for both conditioned states in the Heisenberg frame
        frames = []
        sandwich = rc.events._sandwich_state
        monkeypatch.setattr(rc.events, "_event_gap", None)
        monkeypatch.setattr(rc.events, "_sandwich_state", lambda *args: frames.append(args[-1]) or sandwich(*args))
        dense = rc.detect_event(rho, family, clock, 2.0, n_particles=10, alpha=0.3)
        monkeypatch.undo()
        assert frames == [0.0, 0.0]
        assert dense.event_occurred and fused.event_occurred
        assert abs(dense.distinguishability - fused.distinguishability) <= 1e-12
        assert dense.outcome_probabilities.keys() == fused.outcome_probabilities.keys()
        for label, p in dense.outcome_probabilities.items():
            assert abs(p - fused.outcome_probabilities[label]) <= 1e-12
        schrodinger = rc.distinguishability(rc.rho_mod(rho, clock, 2.0), rc.rho_event(rho, family, clock, 2.0))
        assert abs(dense.distinguishability - schrodinger) <= 1e-12


class TestEnergyBasisPhases:
    """System operators act in h's eigenbasis, scaled by d-vectors of phases
    e^{i lambda t}, on every conditioning path: no Heisenberg stack over t.
    The tests draw from their own generators, so the session generator's
    draws for the tests after them stay as they were."""

    T0 = 1.0
    factor_state = staticmethod(TestConservedDetection.state)

    @staticmethod
    def family(rng, d, members):
        # rank-1 members and the rest of the space, in a random basis
        u = oracles.random_unitary(rng, d)
        cuts = list(range(members)) + [d]
        projectors = tuple(u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(cuts, cuts[1:]))
        return rc.ProjectorFamily(labels=tuple(range(members)), projectors=projectors)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_rho_event_and_detection_match_brute_force(self, small_clock, k, form):
        # d = 4 on 40 nodes with 17 times: Y keeps 17 |S| k <= 160 columns, and
        # a random h commutes with no member, so the fused detection pinches the
        # family; the dense form of the same state takes the dense sandwich
        rng = np.random.default_rng(3100 + k)
        clock = small_clock
        rho = self.factor_state(rng, clock, 4, k)
        if form == "dense":
            rho = rc.DensityOperator.from_matrix(rho.matrix, rho.space)
        h_sys = oracles.random_hermitian(rng, 4)
        h = rc.Observable.from_matrix(h_sys)
        t_grid = np.linspace(0.0, clock.tau, 17)
        window = clock.window_projector(self.T0)
        modified = oracles.brute_reduce_state(
            rho.matrix, [(None, self.T0)], clock.window_projector, clock.h_clock.matrix, h_sys, t_grid
        )
        for members in (2, 3):
            fam = self.family(rng, 4, members)
            got = rc.rho_event(rho, fam, clock, self.T0, h, t_grid, picture="heisenberg")
            assert (got.factor is not None) is (form == "factored")
            want = oracles.brute_rho_event(rho.matrix, fam.projectors, window, clock.h_clock.matrix, h_sys, t_grid)
            np.testing.assert_allclose(got.matrix, want, atol=1e-9)
            assert not rc.events._conserved(fam, h)
            lam = np.linalg.eigvalsh(modified - want)
            rec = rc.detect_event(rho, fam, clock, self.T0, 10, 0.3, h, t_grid=t_grid)
            assert rec.distinguishability == pytest.approx(float(lam[lam > 0].sum()), abs=1e-9)

    def test_no_heisenberg_stack_on_any_conditioning_path(self, free_clock, monkeypatch):
        rng = np.random.default_rng(3200)

        def refuse(*args, **kwargs):
            raise AssertionError("a Heisenberg stack was built")

        monkeypatch.setattr(rc.relational, "heisenberg_stack", refuse)
        clock = free_clock
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 2))
        factored = self.factor_state(rng, clock, 2, 1)
        dense = rc.DensityOperator.from_matrix(factored.matrix, factored.space)
        pair, three = self.family(rng, 2, 2), self.family(rng, 4, 3)
        for rho in (factored, dense):
            rc.reduce_state(rho, clock, [(pair.projectors[0], 1.5), (None, 1.7)], h)
            rc.reduce_state(rho, clock, [(pair.projectors[0], None)], h)
            rc.rho_mod(rho, clock, 1.5, h)
            rc.rho_event(rho, pair, clock, 1.5, h)
        # a pair that commutes with h takes the off-diagonal block, a family of three the pinching
        h_z = rc.Observable.from_matrix(rc.SIGMA_Z)
        assert rc.events._conserved(z_family(), h_z) and not rc.events._conserved(three, None)
        rc.detect_event(factored, z_family(), clock, 1.5, 10, 0.3, h_z)
        h4 = rc.Observable.from_matrix(oracles.random_hermitian(rng, 4))
        rc.detect_event(self.factor_state(rng, clock, 4, 1), three, clock, 1.5, 10, 0.3, h4)


class TestPropertyInclusion:
    def test_family_includes_itself(self):
        fam = z_family()
        assert rc.property_included(fam, fam)

    def test_three_spin_conclusions(self):
        essential = fixtures.three_spin_essential_family()
        assert rc.property_included(fixtures.spin_up_family(0), essential)
        assert rc.property_included(fixtures.opposite_symmetric_family(), essential)
        assert not rc.property_included(fixtures.spin_up_family(1), essential)

    def test_transfer_identity_on_three_spin_state(self):
        state = fixtures.three_spin_state()
        essential = fixtures.three_spin_essential_family()
        lattice = rc.actualized_properties(
            essential, fixtures.three_spin_candidates(), state=state
        )
        assert lattice.included == (True, True, False)
        for inc, res in zip(lattice.included, lattice.transfer_residuals):
            if inc:
                assert res <= 1e-9
        assert lattice.transfer_residuals[2] > 1e-3

    def test_identity_family_always_included(self):
        essential = fixtures.three_spin_essential_family()
        identity_fam = rc.ProjectorFamily(labels=("all",), projectors=(np.eye(8),))
        lattice = rc.actualized_properties(essential, [("identity", identity_fam)])
        assert lattice.included == (True,)

    def test_refinement_of_degenerate_block_excluded(self, rng):
        # essential leaves a 2-d block whole; splitting it is not implied
        obs = rc.Observable.from_matrix(np.diag([0.0, 0.0, 1.0]))
        essential = rc.projector_family(obs)
        refined = rc.ProjectorFamily(
            labels=("a", "b", "c"),
            projectors=(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])),
        )
        assert not rc.property_included(refined, essential)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = g @ g.conj().T
        rho = m / m.trace()
        lattice = rc.actualized_properties(essential, [("refined", refined)], state=rho)
        assert lattice.transfer_residuals[0] > 1e-6

    def test_transfer_identity_on_random_supported_states(self, rng):
        # any state supported on the essential sectors transfers its pinching
        # to every included candidate family
        essential = fixtures.three_spin_essential_family()
        support = sum(essential.projectors)
        included = [
            fam for _, fam in fixtures.three_spin_candidates()[:2]
        ]
        for _ in range(10):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            m = support @ (g @ g.conj().T) @ support
            rho = m / m.trace()
            want = pinch(rho, essential)
            for fam in included:
                assert np.max(np.abs(pinch(rho, fam) - want)) <= 1e-9

    def test_lattice_serialization(self):
        essential = fixtures.three_spin_essential_family()
        lattice = rc.actualized_properties(
            essential, fixtures.three_spin_candidates(), state=fixtures.three_spin_state()
        )
        payload = json.loads(lattice.to_json())
        verdicts = {c["label"]: c["included"] for c in payload["candidates"]}
        assert verdicts == {"spin1-up": True, "2opposite3": True, "spin2-up": False}
