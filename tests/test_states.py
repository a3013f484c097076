import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relclock as rc
from relclock.states import (
    TOL_PSD,
    TOL_TRACE,
    _check_density_stack,
    _density_states,
    evolution_operator,
    herm_defect,
)

import oracles

I2 = np.eye(2, dtype=complex)


class TestTensor:
    def test_identity_product(self):
        assert np.array_equal(rc.tensor(I2, I2), np.eye(4))

    def test_basis_state_product(self):
        got = rc.tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_sigma_x_pair_flips_00_to_11(self):
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1.0
        got = rc.tensor(rc.SIGMA_X, rc.SIGMA_X) @ ket00
        want = np.zeros(4, dtype=complex)
        want[3] = 1.0
        np.testing.assert_allclose(got, want)

    def test_rejects_nonsquare(self):
        with pytest.raises(rc.ValidationError):
            rc.tensor(np.ones((2, 3)), I2)


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = oracles.random_density(rng, 2)
        rho_b = oracles.random_density(rng, 3)
        full = rc.DensityOperator.from_matrix(np.kron(rho_a, rho_b), (2, 3))
        np.testing.assert_allclose(rc.partial_trace(full, [0]).matrix, rho_a, atol=1e-12)
        np.testing.assert_allclose(rc.partial_trace(full, [1]).matrix, rho_b, atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        rho = rc.DensityOperator.from_vector(bell, (2, 2))
        np.testing.assert_allclose(rc.partial_trace(rho, [0]).matrix, I2 / 2, atol=1e-12)

    def test_keep_all_is_identity(self, rng):
        rho = rc.DensityOperator.from_matrix(oracles.random_density(rng, 6), (2, 3))
        np.testing.assert_allclose(rc.partial_trace(rho, [0, 1]).matrix, rho.matrix)

    def test_matches_index_loop_oracle(self, rng):
        rho = oracles.random_density(rng, 12)
        got = rc.partial_trace_matrix(rho, (2, 3, 2), [0, 2])
        want = oracles.brute_partial_trace(rho, (2, 3, 2), [0, 2])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_local_expectation_consistency(self, rng):
        rho = rc.DensityOperator.from_matrix(oracles.random_density(rng, 8), (2, 4))
        a = oracles.random_hermitian(rng, 2)
        local = rc.partial_trace(rho, [0]).expectation(a)
        lifted = rho.expectation(np.kron(a, np.eye(4)))
        assert abs(local - lifted) <= 1e-10

    def test_invalid_subsystem(self, rng):
        rho = rc.DensityOperator.from_matrix(oracles.random_density(rng, 4), (2, 2))
        with pytest.raises(ValueError):
            rc.partial_trace(rho, [2])


class TestProjectorFamily:
    def test_sigma_z(self, h_z):
        fam = rc.projector_family(h_z)
        assert fam.labels == (-1.0, 1.0)
        np.testing.assert_allclose(fam.projectors[0], np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(fam.projectors[1], np.diag([1.0, 0.0]), atol=1e-12)

    def test_fully_degenerate(self):
        obs = rc.Observable.from_matrix(np.eye(3))
        fam = rc.projector_family(obs)
        assert len(fam) == 1
        np.testing.assert_allclose(fam.projectors[0], np.eye(3), atol=1e-12)

    def test_sigma_x(self, h_x):
        fam = rc.projector_family(h_x)
        np.testing.assert_allclose(fam.projectors[1], 0.5 * (I2 + rc.SIGMA_X), atol=1e-12)
        np.testing.assert_allclose(fam.projectors[0], 0.5 * (I2 - rc.SIGMA_X), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
    def test_complete_and_orthogonal_on_random_hermitian(self, dim, seed):
        rng = np.random.default_rng(seed)
        obs = rc.Observable.from_matrix(oracles.random_hermitian(rng, dim))
        fam = rc.projector_family(obs)
        total = sum(fam.projectors)
        assert np.max(np.abs(total - np.eye(dim))) <= 1e-9
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert rc.states.spectral_norm(fam.projectors[i] @ fam.projectors[j]) <= 1e-9


class TestIntervalProjector:
    def test_single_eigenvalue(self, h_z):
        np.testing.assert_allclose(
            rc.interval_projector(h_z, 0.5, 1.5), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_full_spectrum(self, h_z):
        np.testing.assert_allclose(rc.interval_projector(h_z, -2.0, 2.0), I2, atol=1e-12)

    def test_grid_operator_rank_one(self):
        grid = np.arange(5.0)
        obs = rc.Observable.from_matrix(np.diag(grid))
        p = rc.interval_projector(obs, 2.0 - 0.5, 2.0 + 0.5)
        want = np.zeros((5, 5))
        want[2, 2] = 1.0
        np.testing.assert_allclose(p, want, atol=1e-12)

    def test_empty_interval_is_zero(self, h_z):
        assert np.all(rc.interval_projector(h_z, 5.0, 6.0) == 0)

    def test_bad_bounds(self, h_z):
        with pytest.raises(ValueError):
            rc.interval_projector(h_z, 1.0, -1.0)


class TestUnitaryEvolve:
    def test_zero_time_is_identity(self, rng, h_z):
        a = rc.Observable.from_matrix(oracles.random_hermitian(rng, 2))
        np.testing.assert_allclose(rc.unitary_evolve(a, h_z, 0.0).matrix, a.matrix, atol=1e-14)

    def test_rabi_rotation(self, h_z):
        # e^{i sigma_z t} sigma_x e^{-i sigma_z t} = cos(2t) sigma_x - sin(2t) sigma_y
        got = rc.unitary_evolve(rc.Observable.from_matrix(rc.SIGMA_X), h_z, np.pi / 2)
        np.testing.assert_allclose(got.matrix, -rc.SIGMA_X, atol=1e-12)

    def test_hamiltonian_is_conserved(self, rng):
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 4))
        for t in (0.3, 1.7, 12.0):
            np.testing.assert_allclose(rc.unitary_evolve(h, h, t).matrix, h.matrix, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=-5.0, max_value=5.0))
    def test_spectrum_preserved(self, dim, seed, t):
        rng = np.random.default_rng(seed)
        a = rc.Observable.from_matrix(oracles.random_hermitian(rng, dim))
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, dim))
        evolved = rc.unitary_evolve(a, h, t)
        np.testing.assert_allclose(evolved.eigenvalues, a.eigenvalues, atol=1e-8)

    def test_schrodinger_heisenberg_duality(self, rng, h_x):
        rho = rc.DensityOperator.from_matrix(oracles.random_density(rng, 2), (2,))
        a = oracles.random_hermitian(rng, 2)
        t = 0.83
        lhs = rc.unitary_evolve(rho, h_x, t).expectation(a)
        rhs = rho.expectation(rc.unitary_evolve(a, h_x, t, picture="heisenberg"))
        assert abs(lhs - rhs) <= 1e-12

    def test_density_invariants_after_evolution(self, rng):
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 5))
        rho = rc.DensityOperator.from_matrix(oracles.random_density(rng, 5), (5,))
        out = rc.unitary_evolve(rho, h, 2.5)
        assert abs(out.matrix.trace().real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-9
        assert herm_defect(out.matrix) <= 1e-10

    def test_unitarity_of_evolution_operator(self, rng):
        h = rc.Observable.from_matrix(oracles.random_hermitian(rng, 6))
        u = evolution_operator(h, 1.234)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


class TestDensityOperatorValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(rc.ValidationError):
            rc.DensityOperator.from_matrix(np.array([[0.5, 0.3], [0.4, 0.5]]), (2,))

    def test_rejects_wrong_trace(self):
        with pytest.raises(rc.ValidationError):
            rc.DensityOperator.from_matrix(np.diag([0.5, 0.3]), (2,))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(rc.ValidationError):
            rc.DensityOperator.from_matrix(np.diag([1.5, -0.5]), (2,))

    def test_matrix_is_immutable(self):
        rho = rc.DensityOperator.maximally_mixed((2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


def with_spectrum(rng, spectrum) -> np.ndarray:
    """U diag(spectrum) U^dagger for a random unitary U."""
    u = oracles.random_unitary(rng, len(spectrum))
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().T


def eigvalsh_verdict(m: np.ndarray) -> bool:
    """Acceptance by the full-spectrum positivity test on a unit-trace matrix."""
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]) >= -TOL_PSD


NON_FINITE = [[[np.nan, 0.0], [0.0, 1.0]], [[0.5, np.inf], [np.inf, 0.5]]]


def no_spectrum(monkeypatch):
    """Make a full eigvalsh spectrum an error: acceptance must rest on the factorization."""
    def forbidden(*args, **kwargs):
        raise AssertionError("eigvalsh ran on a state the certificate should accept")
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)


class TestPositivityCertificate:
    @pytest.mark.parametrize("lam_min, accepted", [(-0.5 * TOL_PSD, True), (-2.0 * TOL_PSD, False)])
    def test_tolerance_edge(self, rng, monkeypatch, lam_min, accepted):
        m = with_spectrum(rng, [lam_min, 0.2, 0.3, 0.5 - lam_min])
        if accepted:
            no_spectrum(monkeypatch)
            rc.DensityOperator.from_matrix(m, (4,))
        else:
            with pytest.raises(rc.ValidationError, match="negative eigenvalue"):
                rc.DensityOperator.from_matrix(m, (4,))

    def test_rank_one_pure_state_of_dimension_1024(self, rng, monkeypatch):
        psi = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        no_spectrum(monkeypatch)
        rho = rc.DensityOperator.from_vector(psi, (1024,))
        assert abs(rho.purity() - 1.0) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=-4.0, max_value=4.0))
    def test_verdict_equals_full_spectrum_verdict(self, dim, seed, lam_scale):
        rng = np.random.default_rng(seed)
        rest = rng.uniform(0.0, 1.0, dim - 1)
        lam_min = lam_scale * TOL_PSD
        m = with_spectrum(rng, [lam_min, *((1.0 - lam_min) * rest / rest.sum())])
        lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        assume(not -1.01 * TOL_PSD <= lo <= -0.99 * TOL_PSD)
        try:
            rc.DensityOperator.from_matrix(m, (dim,))
            accepted = True
        except rc.ValidationError:
            accepted = False
        assert accepted == eigvalsh_verdict(m)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(rc.ValidationError, match="non-finite"):
            rc.DensityOperator.from_matrix(bad, (2,))


class TestDensityStack:
    SPACE = rc.HilbertSpace((3,))

    def stack(self, rng, k=6):
        # a 1e-13 anti-Hermitian part makes the hermitizing arithmetic visible
        noise = 1e-13 * np.stack([oracles.random_hermitian(rng, 3) for _ in range(k)])
        return np.stack([oracles.random_density(rng, 3) for _ in range(k)]) + 1j * noise

    def test_bitwise_equal_to_one_at_a_time(self, rng):
        stack = self.stack(rng)
        states = _density_states(stack, self.SPACE)
        assert len(states) == len(stack)
        for m, rho in zip(stack, states):
            assert np.array_equal(rho.matrix, rc.DensityOperator(matrix=m, space=self.SPACE).matrix)
            assert np.array_equal(rho.matrix, 0.5 * (m + m.conj().T))
            assert rho.space == self.SPACE and not rho.matrix.flags.writeable

    @pytest.mark.parametrize(
        "spoil, index, message",
        [
            ({2: np.diag([1.5, -0.5, 0.0]), 4: np.diag([0.5, 0.3, 0.0])}, 2, "negative eigenvalue"),
            ({1: np.diag([0.5, 0.3, 0.0]), 3: np.diag([1.5, -0.5, 0.0])}, 1, "trace"),
            ({3: np.array([[0.5, 0.3, 0], [0.4, 0.5, 0], [0, 0, 0]])}, 3, "not Hermitian"),
            ({5: np.diag([1.5, -0.5, 0.0]), 4: np.diag([np.nan, 1.0, 0.0])}, 4, "non-finite"),
        ],
    )
    def test_names_the_first_failing_index(self, rng, spoil, index, message):
        stack = self.stack(rng)
        for i, m in spoil.items():
            stack[i] = m
        with pytest.raises(rc.ValidationError, match=f"state {index}: .*{message}") as info:
            _density_states(stack, self.SPACE)
        assert info.value.index == index

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_entries_rejected(self, bad):
        stack = np.stack([np.eye(2) / 2, bad, np.eye(2) / 2])
        with pytest.raises(rc.ValidationError, match="state 1: .*non-finite"):
            _density_states(stack, rc.HilbertSpace((2,)))

    def test_shape_must_match_the_space(self, rng):
        with pytest.raises(rc.ValidationError, match="shape"):
            _density_states(self.stack(rng), rc.HilbertSpace((2,)))


class TestGramFactor:
    def unit_factor(self, rng, n, k):
        g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        return g / np.linalg.norm(g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factor_rejected(self, rng, bad):
        f = self.unit_factor(rng, 4, 2)
        f[1, 0] = bad
        with pytest.raises(rc.ValidationError, match="non-finite"):
            rc.DensityOperator.from_factor(f, (4,))

    @pytest.mark.parametrize("excess, accepted", [(0.5 * TOL_TRACE, True), (2.0 * TOL_TRACE, False)])
    def test_trace_is_the_squared_frobenius_norm(self, rng, excess, accepted):
        f = self.unit_factor(rng, 4, 2) * np.sqrt(1.0 + excess)
        if accepted:
            rc.DensityOperator.from_factor(f, (4,))
        else:
            with pytest.raises(rc.ValidationError, match="trace"):
                rc.DensityOperator.from_factor(f, (4,))

    def test_factor_shape_must_match_the_space(self, rng):
        with pytest.raises(rc.ValidationError, match="shape"):
            rc.DensityOperator.from_factor(self.unit_factor(rng, 4, 2), (3,))

    def test_from_vector_matrix_is_the_dense_constructors_bitwise(self, rng):
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        rho = rc.DensityOperator.from_vector(psi, (32, 2))
        assert rho.factor.shape == (64, 1)
        v = psi / np.linalg.norm(psi)
        outer = np.outer(v, v.conj())
        # np.outer rounds its two triangles differently: both constructors keep 0.5 (o + o^dagger)
        assert np.array_equal(rho.matrix, 0.5 * (outer + outer.conj().T))
        assert np.array_equal(rho.matrix, rc.DensityOperator.from_matrix(outer, (32, 2)).matrix)
        assert not rho.matrix.flags.writeable and not rho.factor.flags.writeable

    @pytest.mark.parametrize("ranks", [(1, 1), (1, 2), (3, 2)])
    def test_tensor_of_factored_states_is_the_kronecker_product(self, rng, ranks):
        a = rc.DensityOperator.from_factor(self.unit_factor(rng, 5, ranks[0]), (5,))
        b = rc.DensityOperator.from_factor(self.unit_factor(rng, 3, ranks[1]), (3,))
        ab = a.tensor(b)
        assert ab.factor.shape == (15, ranks[0] * ranks[1]) and ab.space.dims == (5, 3)
        assert np.max(np.abs(ab.matrix - np.kron(a.matrix, b.matrix))) <= 1e-15

    def test_dense_operand_gives_a_factored_product(self, rng):
        # a dense operand enters with its eigh factor: all of its dim columns
        a = rc.DensityOperator.from_factor(self.unit_factor(rng, 5, 2), (5,))
        b = rc.DensityOperator.from_matrix(oracles.random_density(rng, 3), (3,))
        for ab in (a.tensor(b), b.tensor(a)):
            assert ab.factor.shape == (15, 2 * 3)

    def test_dense_operand_product_is_the_checked_kron(self, rng):
        a = rc.DensityOperator.from_factor(self.unit_factor(rng, 5, 2), (5,))
        b = rc.DensityOperator.from_matrix(oracles.random_density(rng, 3), (3,))
        for x, y in ((a, b), (b, a), (b, b), (a.tensor(b), a)):
            xy = x.tensor(y)
            eager = rc.DensityOperator(np.kron(x.matrix, y.matrix), xy.space)
            assert np.max(np.abs(xy.matrix - eager.matrix)) <= 1e-15 and not xy.matrix.flags.writeable
            copied = pickle.loads(pickle.dumps(xy))
            assert repr(copied) == repr(xy) and np.array_equal(copied.factor, xy.factor)
            assert np.array_equal(copied.matrix, xy.matrix)

    def test_dense_operand_within_the_psd_tolerance_is_accepted(self, rng):
        # lambda_min = -0.5 TOL_PSD passes the checker; its factor clips it to zero
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        lam = np.array([-0.5 * TOL_PSD, 0.4, 0.6 + 0.5 * TOL_PSD])
        b = rc.DensityOperator.from_matrix((u * lam) @ u.conj().T, (3,))
        a = rc.DensityOperator.from_factor(self.unit_factor(rng, 4, 1), (4,))
        ab = a.tensor(b)
        assert np.max(np.abs(ab.matrix - np.kron(a.matrix, b.matrix))) <= TOL_PSD

    def test_dense_operand_product_holds_no_matrix(self, rng):
        a = rc.DensityOperator.from_factor(self.unit_factor(rng, 512, 1), (512,))
        b = rc.DensityOperator.from_matrix(oracles.random_density(rng, 2), (2,))
        tracemalloc.start()
        try:
            ab = a.tensor(b)
            a.matrix, ab.matrix  # built on each access, kept by neither state
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 0.01 * (1024 * 1024 * 16)

    def test_dense_operand_product_checks_its_trace(self, rng):
        # each operand is within TOL_TRACE of unit trace, their product is not
        a = rc.DensityOperator.from_factor(self.unit_factor(rng, 4, 1) * np.sqrt(1.0 + 0.6 * TOL_TRACE), (4,))
        b = rc.DensityOperator.from_matrix(np.diag([0.5, 0.5 + 0.6 * TOL_TRACE]), (2,))
        with pytest.raises(rc.ValidationError, match="trace"):
            a.tensor(b)

    def test_factored_reductions_build_no_matrix(self, rng):
        # the matrix of a 2048-entry vector takes 64 MiB
        rho = rc.DensityOperator.from_vector(rng.normal(size=2048) + 1j * rng.normal(size=2048), (1024, 2))
        g = rng.normal(size=(2048, 2048)) + 1j * rng.normal(size=(2048, 2048))
        op = g + g.conj().T
        del g
        m = rho.matrix
        calls = {
            "purity": (rho.purity, np.einsum("ij,ji->", m, m).real),
            "expectation": (lambda: rho.expectation(op), np.einsum("ij,ji->", op, m).real),
            "partial_trace [0]": (lambda: rc.partial_trace(rho, [0]), rc.partial_trace_matrix(m, (1024, 2), [0])),
            "partial_trace [1]": (lambda: rc.partial_trace(rho, [1]), rc.partial_trace_matrix(m, (1024, 2), [1])),
        }
        del m
        for name, (call, want) in calls.items():
            tracemalloc.start()
            try:
                got = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**20, name
            # a reduced state's own matrix is built after the traced call
            got = got.matrix if isinstance(got, rc.DensityOperator) else got
            assert np.max(np.abs(got - want)) <= 1e-12, name

    def test_immutable(self, rng):
        rho = rc.DensityOperator.from_factor(self.unit_factor(rng, 4, 2), (4,))
        with pytest.raises(AttributeError):
            rho.factor = None
        with pytest.raises(ValueError):
            rho.factor[0, 0] = 1.0


@pytest.mark.parametrize("k, d", [(1, 1024), (20000, 2)])
def test_hermitian_defect_in_the_last_block_is_found(k, d):
    # the defect pass walks blocks of rows (d = 1024) or of whole members (d = 2)
    stack = np.broadcast_to(np.eye(d, dtype=complex) / d, (k, d, d)).copy()
    stack[-1, -1, -2] = 1e-6  # rows d - 1 and d - 2 both lie in the last block
    with pytest.raises(rc.ValidationError, match=f"state {k - 1}: .*not Hermitian"):
        _density_states(stack, rc.HilbertSpace((d,)))


def test_checker_peak_memory_at_dimension_1024(rng):
    """The checker holds m^dagger and numpy's Cholesky factor, plus row blocks
    of the Hermitian defect: at most 2.1 matrices beyond its input."""
    g = rng.normal(size=(1024, 8)) + 1j * rng.normal(size=(1024, 8))
    m = g @ g.conj().T
    m /= m.trace().real
    tracemalloc.start()
    try:
        _check_density_stack(m[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * m.nbytes


class TestSerialization:
    def test_round_trip_is_exact(self, rng):
        m = oracles.random_density(rng, 4)
        text = rc.operator_to_json(m, (2, 2))
        back, dims = rc.operator_from_json(text)
        assert dims == (2, 2)
        assert np.array_equal(back, m)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.operator_from_json('{"dims": [3], "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}')
