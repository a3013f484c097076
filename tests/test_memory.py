"""Peak traced allocation of the conditioning quadratures on large clocks.

At the README's clock parameters with n = 512 (nt = 104, qubit system) one
dense (nt, n d, n d) complex stack takes 1.7 GB.  The factored window kernel
builds no full-space stack, so each call must stay below ``LIMIT_MB``.  A pure
state kept as a Gram factor goes further: at n = 16384 its dense matrix alone
would take 16 GiB, while its conditioned state stays a factor of nt columns
and ``detect_event`` builds no state at all.  A probability on a large
system (the qubit and an 8-spin register, d = 512) is one d x d kernel in the
Hamiltonian's eigenbasis, where a Heisenberg stack of the projector would take
416 MiB, and its reading-density reference ``effective_projector`` takes its
weighted sum from an (nt, d) table of phases e^{-i lambda t} without that
stack.  A conditioned state of the register system (a 6-spin register,
d = 128) applies its system operator in that eigenbasis too, scaled by
d-vectors of phases, so ``reduce_state`` and ``detect_event`` hold the factor
Y of nt columns and chunk buffers, and no (nt, d, d) stack beside it.  A
history chain builds no reduced state between its events: it carries each
reduction to the next window as a factor of at most r d columns per time,
up to the window cores of the next-to-last event.  A dense input enters
every kernel as its Gram factor, from one eigh of its (n d)^2 matrix on the
first call, kept on the state for the calls after it.  The reading densities of several readings come from one
clock evolution walked over t-chunks.  No timing is asserted.  Each test also
checks its result through an independent path, since at these sizes the
kernel walks the time grid in several chunks.  The spin-register oracle walks
its times in chunks of about 2^14 register entries, so its bound,
``ORACLE_LIMIT_MB``, is far tighter.
"""

import tracemalloc

import numpy as np
import pytest

import relclock as rc
from relclock import fixtures

from inputs import product_state

LIMIT_MB = 256.0
ORACLE_LIMIT_MB = 4.0
T0 = 2.0
PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


@pytest.fixture(scope="module")
def readme_case():
    clock = rc.build_free_particle_clock(512, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    assert clock.default_t_grid().size == 104
    # a dense input: the first call that reads it (the probability's, in file
    # order) takes its Gram factor from one eigh, and every call reads that factor
    rho = product_state(clock, rc.DensityOperator.from_matrix(PLUS, (2,)), "dense")
    return clock, rho, rc.Observable.from_matrix(rc.SIGMA_Z)


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def schrodinger_plus(h, t):
    u = rc.states.evolution_operator(h, t)
    return u @ PLUS @ u.conj().T


def test_conditional_probability_peak(readme_case):
    clock, rho, h = readme_case
    p, peak = traced_peak_mb(lambda: rc.conditional_probability(rho, PLUS, clock, T0, h_system=h))
    assert peak <= LIMIT_MB
    # product state: the reading-density average of the Heisenberg projector
    f = rc.effective_projector(PLUS, clock, T0, h_system=h)
    assert p == pytest.approx(float(np.einsum("ij,ji->", f, PLUS).real), abs=1e-9)


def test_factor_kernel_peak_at_256_nodes():
    # the README rho at n = 256 takes the kernel's matmul route: a (d k r, n)
    # table and the (d k r, nt) window rows, 0.38 MiB traced once the clock's
    # tables exist, where an FFT of F's columns per time took 1.6 MiB
    clock = rc.build_free_particle_clock(256, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    h = rc.Observable.from_matrix(rc.SIGMA_Z)
    rho = clock.rho0.tensor(rc.DensityOperator.from_matrix(PLUS, (2,)))
    assert rc.relational._rows_by_matmul(clock.n, int(np.count_nonzero(clock._window_mask(T0))))
    first = rc.conditional_probability(rho, PLUS, clock, T0, h_system=h)
    p, peak = traced_peak_mb(lambda: rc.conditional_probability(rho, PLUS, clock, T0, h_system=h))
    assert peak <= 0.75
    assert p == first
    f = rc.effective_projector(PLUS, clock, T0, h_system=h)
    assert p == pytest.approx(float(np.einsum("ij,ji->", f, PLUS).real), abs=1e-9)


@pytest.fixture(scope="module")
def full_rank_case(readme_case):
    # a full-rank dense input: its Gram factor, taken here, has n d = 1024 columns
    clock, _, h = readme_case
    g = np.random.default_rng(512).normal(size=(2 * clock.n, 4 * clock.n)).view(complex)
    mixed = 0.8 * np.kron(clock.rho0.matrix, PLUS) + 0.2 * (g @ g.conj().T) / np.vdot(g, g).real
    rho = rc.DensityOperator.from_matrix(mixed, clock.space * rc.HilbertSpace((2,)))
    assert rho._gram_factor().shape[1] == 2 * clock.n
    return clock, rho, h


def test_full_rank_dense_input_peak(full_rank_case):
    # the matmul route's (d k, r, n) table of a factor of n d columns would take
    # 450 MiB: such a factor takes an FFT of each column per time instead
    clock, rho, h = full_rank_case
    mask = clock._window_mask(T0)
    assert rc.relational._rows_by_matmul(clock.n, int(np.count_nonzero(mask)))
    p, peak = traced_peak_mb(lambda: rc.conditional_probability(rho, PLUS, clock, T0, h_system=h))
    assert peak <= LIMIT_MB
    # K is a sum over the factor's columns: blocks narrow enough for the matmul
    # route's table give the same kernel
    t_grid = clock.default_t_grid()
    v, lam = rc.relational._eigenbasis(h, 2)
    scale = np.exp(1j * np.outer(t_grid, lam)) * np.sqrt(clock._quadrature_weights(t_grid))[:, None]
    dft = rc.relational._window_dft(clock, mask)
    f, kernel = rho._gram_factor(), np.zeros((2, 2), dtype=complex)
    for i in range(0, f.shape[1], 32):
        for _, _, x in rc.relational._window_rows(f[:, i : i + 32], clock, mask, t_grid, scale, v, dft):
            x = x.reshape(2, -1)
            kernel += x @ x.conj().T
    want = rc.relational._kernel_probabilities(kernel.conj(), v, PLUS[None], T0)[0]
    assert p == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n_events", [2, 3])
def test_full_rank_dense_history_peak(full_rank_case, n_events):
    # the first window's rows of a factor of n d columns are replaced per t-chunk
    # by R^T of r d columns, where holding them all took 346 and 700 MiB
    clock, rho, h = full_rank_case
    up = np.diag([1.0, 0.0]).astype(complex)
    events = [(PLUS, 1.5), (up, 2.0), (PLUS, 2.6)][:n_events]
    p, peak = traced_peak_mb(lambda: rc.history_probability(rho, clock, events, h_system=h))
    assert peak <= LIMIT_MB
    # the chain through the conditioned states themselves
    want, state = 1.0, rho
    for i, (q, t0) in enumerate(events):
        want *= rc.conditional_probability(state, q, clock, t0, h_system=h)
        if i + 1 < len(events):
            state = rc.reduce_state(state, clock, [(q, t0)], h_system=h)
    assert p == pytest.approx(want, abs=1e-12)


def test_rho_mod_peak(readme_case):
    clock, rho, h = readme_case
    out, peak = traced_peak_mb(lambda: rc.rho_mod(rho, clock, T0, h_system=h))
    assert peak <= LIMIT_MB
    # the window acts on the clock alone: the system is the unitarily evolved qubit
    system = rc.partial_trace(out, [1]).matrix
    np.testing.assert_allclose(system, schrodinger_plus(h, T0), atol=1e-9)


def test_rho_event_peak(readme_case):
    clock, rho, h = readme_case
    family = fixtures.pointer_family_z()
    out, peak = traced_peak_mb(lambda: rc.rho_event(rho, family, clock, T0, h_system=h))
    assert peak <= LIMIT_MB
    # sigma_z commutes with the pointer family: the system is the pinched evolved qubit
    system = rc.partial_trace(out, [1]).matrix
    np.testing.assert_allclose(system, rc.events.pinch(schrodinger_plus(h, T0), family), atol=1e-9)


def test_three_event_history_peak(readme_case):
    # the state between the last two events would be dense, (n d)^2 = 16 MiB with
    # its check: the last two factors come from the cores of the state before them
    clock, _, h = readme_case
    rho = clock.rho0.tensor(rc.DensityOperator.from_matrix(PLUS, (2,)))
    up = np.diag([1.0, 0.0]).astype(complex)
    events = [(PLUS, 1.5), (up, 2.0), (PLUS, 2.6)]
    p, peak = traced_peak_mb(lambda: rc.history_probability(rho, clock, events, h_system=h))
    assert peak <= LIMIT_MB
    # the chain through the conditioned states themselves
    want, state = 1.0, rho
    for i, (q, t0) in enumerate(events):
        want *= rc.conditional_probability(state, q, clock, t0, h_system=h)
        if i + 1 < len(events):
            state = rc.reduce_state(state, clock, [(q, t0)], h_system=h)
    assert p == pytest.approx(want, abs=1e-12)


def test_four_event_history_on_a_1024_node_clock():
    # the pure chain carries each reduction from window to window: a factor of at
    # most r d columns per time and the cores of the next-to-last window, where
    # each reduced state along the chain would be a factor of nt columns and then
    # an (n d)^2 = 64 MiB matrix
    clock = rc.build_free_particle_clock(1024, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    h = rc.Observable.from_matrix(rc.SIGMA_Z)
    rho = clock.rho0.tensor(rc.DensityOperator.from_vector(np.array([1.0, 1.0]) / np.sqrt(2.0), (2,)))
    up = np.diag([1.0, 0.0]).astype(complex)
    events = [(PLUS, 1.5), (up, 2.0), (PLUS, 2.6), (up, 3.1)]
    p, peak = traced_peak_mb(lambda: rc.history_probability(rho, clock, events, h_system=h))
    assert peak <= LIMIT_MB
    # the chain through the conditioned states themselves
    want, state = 1.0, rho
    for i, (q, t0) in enumerate(events):
        want *= rc.conditional_probability(state, q, clock, t0, h_system=h)
        if i + 1 < len(events):
            state = rc.reduce_state(state, clock, [(q, t0)], h_system=h)
    assert p == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def pure_16384():
    clock = rc.build_free_particle_clock(16384, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return clock, clock.rho0.tensor(rc.DensityOperator.from_vector(plus, (2,)))


def test_rho_mod_on_a_16384_node_clock(pure_16384):
    # the conditioned state stays a Gram factor Y of nt = 104 columns (54 MB)
    clock, rho = pure_16384
    h = rc.Observable.from_matrix(rc.SIGMA_Z)
    out, peak = traced_peak_mb(lambda: rc.rho_mod(rho, clock, T0, h_system=h))
    assert peak <= LIMIT_MB
    assert out.factor is not None
    np.testing.assert_allclose(rc.partial_trace(out, [1]).matrix, schrodinger_plus(h, T0), atol=1e-9)


def test_detect_event_on_a_16384_node_clock(pure_16384):
    clock, rho = pure_16384
    family = fixtures.pointer_family_z()
    rec, peak = traced_peak_mb(lambda: rc.detect_event(rho, family, clock, T0, n_particles=10, alpha=0.3))
    assert peak <= LIMIT_MB
    # product input, no system Hamiltonian: d is the system coherence |rho_01| of plus
    assert rec.distinguishability == pytest.approx(0.5, abs=1e-9)
    assert not rec.event_occurred


def test_detect_event_on_a_dephased_qubit_at_16384_nodes(pure_16384):
    # a mixed qubit enters with a rank-2 factor, so Y has 208 columns; each
    # pointer range's R factor comes from a QR over blocks of clock nodes
    clock, _ = pure_16384
    dephased = rc.DensityOperator.from_matrix(np.array([[0.5, 0.2], [0.2, 0.5]]), (2,))
    rho = clock.rho0.tensor(dephased)
    assert rho.factor.shape[1] == 2
    family = fixtures.pointer_family_z()
    rec, peak = traced_peak_mb(lambda: rc.detect_event(rho, family, clock, T0, n_particles=10, alpha=0.3))
    assert peak <= LIMIT_MB
    # product input, no system Hamiltonian: d is the system coherence |rho_01|
    assert rec.distinguishability == pytest.approx(0.2, abs=1e-9)
    assert not rec.event_occurred


def test_factored_state_on_a_16384_node_clock():
    clock = rc.build_free_particle_clock(16384, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    h = rc.Observable.from_matrix(rc.SIGMA_Z)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)

    def build_and_condition():
        rho = clock.rho0.tensor(rc.DensityOperator.from_vector(plus, (2,)))
        return rc.conditional_probability(rho, PLUS, clock, T0, h_system=h)

    p, peak = traced_peak_mb(build_and_condition)
    assert peak <= LIMIT_MB
    f = rc.effective_projector(PLUS, clock, T0, h_system=h)
    assert p == pytest.approx(float(np.einsum("ij,ji->", f, PLUS).real), abs=1e-9)


def test_five_reading_densities_on_a_16384_node_clock():
    # one evolution walked over t-chunks: a whole (n, nt) packet history would take 300 MiB
    clock = rc.build_free_particle_clock(16384, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    t_grid = np.linspace(0.0, clock.tau, 1201)
    t_values = [1.0, 2.0, 3.0, 4.0, 5.0]
    densities, peak = traced_peak_mb(lambda: rc.clock_densities(clock, t_values, t_grid))
    assert peak <= LIMIT_MB
    assert np.array_equal(densities[1].density, rc.clock_density(clock, t_values[1], t_grid).density)
    # independent of the chunking: the window masses at a few times, evolved on their own
    cols = [0, 600, 1200]
    psi_t = clock.evolve_state(t_grid[cols])
    raw = np.sum(np.abs(psi_t[clock._window_mask(t_values[1]), :]) ** 2, axis=0)
    np.testing.assert_allclose(densities[1].density[cols] * densities[1].weight, raw, rtol=1e-12, atol=1e-300)


def test_register_conditional_probability_peak():
    # clock (x) qubit (x) 8-spin register, h = sigma_z (x) sum_k g_k sigma_z^(k)
    clock = rc.build_free_particle_clock(256, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    model = rc.make_incommensurate_model(8)
    h = rc.Observable.from_matrix(np.diag(np.kron([1.0, -1.0], model.branch_energies())))
    register = rc.DensityOperator.from_vector(model.env_amplitudes(), (2**8,))
    rho = clock.rho0.tensor(model.system_init.tensor(register))
    q = np.kron(PLUS, np.eye(2**8))
    p, peak = traced_peak_mb(lambda: rc.conditional_probability(rho, q, clock, T0, h_system=h))
    assert peak <= LIMIT_MB
    # product input: the reading-density average of P(plus at t) = 1/2 + Re rho_10(t),
    # with rho_10(t) from the gate-by-gate register oracle
    density = rc.clock_density(clock, T0)
    weights = density._weights()
    coherence = rc.exact_reduced_coherence(model, density.t_grid)
    assert p == pytest.approx(float(np.sum(weights * (0.5 + coherence.real)) / weights.sum()), abs=1e-9)


def test_register_effective_projector_peak():
    # d = 512, nt = 104: the whole (nt, d, d) factor stack would take 416 MiB;
    # the weighted sum is U^T diag(w) U^* over the (nt, d) phases U instead
    clock = rc.build_free_particle_clock(256, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    model = rc.make_incommensurate_model(8)
    lam = np.kron([1.0, -1.0], model.branch_energies())
    h = rc.Observable.from_matrix(np.diag(lam))
    q = np.kron(PLUS, np.eye(2**8))
    f, peak = traced_peak_mb(lambda: rc.effective_projector(q, clock, T0, h_system=h))
    assert peak <= LIMIT_MB
    # diagonal h: e^{iHt} Q e^{-iHt} multiplies Q_mn by e^{i (lam_m - lam_n) t}, summed time by time
    density = rc.clock_density(clock, T0)
    weights = density._weights() / density._weights().sum()
    omega = lam[:, None] - lam[None, :]
    mix = np.zeros_like(q)
    for w, t in zip(weights, density.t_grid):
        mix += w * np.exp(1j * omega * t)
    np.testing.assert_allclose(f, q * mix, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def register_128():
    # clock (x) qubit (x) 6-spin register, d = 128, pure: a Gram factor of one column
    clock = rc.build_free_particle_clock(256, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    model = rc.make_incommensurate_model(6)
    lam = np.kron([1.0, -1.0], model.branch_energies())
    system = model.system_init.tensor(rc.DensityOperator.from_vector(model.env_amplitudes(), (2**6,)))
    rho = clock.rho0.tensor(system)
    assert rho.factor.shape[1] == 1
    return clock, rho, system.matrix, lam


def test_register_reduce_state_peak(register_128):
    # Y has nt = 104 columns of n d = 32768 rows (52 MiB); the system operator
    # acts in h's eigenbasis through d-vectors of phases, where a Heisenberg
    # stack of it took (nt, d, d), and the factor's route read 126 MiB traced
    clock, rho, system, lam = register_128
    h = rc.Observable.from_matrix(np.diag(lam))
    q = np.kron(PLUS, np.eye(2**6))
    out, peak = traced_peak_mb(lambda: rc.reduce_state(rho, clock, [(q, T0)], h_system=h))
    assert peak <= LIMIT_MB
    assert out.factor is not None
    # product input: the system marginal is sum_t w_t p_T0(t) S(t) rho_s S(t)^dagger,
    # normalized, with S(t)_mn = q_mn e^{i (lam_m - lam_n) t} for the diagonal h
    t_grid = clock.default_t_grid()
    weights = rc.clocks.trapezoid_weights(t_grid) * clock.window_probabilities(T0, t_grid)
    omega = lam[:, None] - lam[None, :]
    want = np.zeros_like(system)
    for w, t in zip(weights, t_grid):
        s_t = q * np.exp(1j * omega * t)
        want += w * (s_t @ system @ s_t.conj().T)
    want /= want.trace().real
    np.testing.assert_allclose(rc.partial_trace(out, [1, 2]).matrix, want, rtol=0, atol=1e-9)


def test_register_detect_event_peak(register_128):
    # the qubit's pointer pair commutes with h = sigma_z (x) sum_k g_k sigma_z^(k)
    clock, rho, system, lam = register_128
    h = rc.Observable.from_matrix(np.diag(lam))
    up = np.kron(np.diag([1.0, 0.0]), np.eye(2**6))
    family = rc.ProjectorFamily(labels=("up", "down"), projectors=(up, np.eye(2**7) - up))
    rec, peak = traced_peak_mb(lambda: rc.detect_event(rho, family, clock, T0, n_particles=10, alpha=0.3, h_system=h))
    assert peak <= LIMIT_MB
    # product input: rho_mod's system marginal is rho_s at every time, so d is the
    # nuclear norm of its off-diagonal block between the pointer ranges
    assert rec.distinguishability == pytest.approx(np.linalg.svd(system[:64, 64:], compute_uv=False).sum(), abs=1e-9)
    assert not rec.event_occurred


def test_register_oracle_on_thirteen_spins():
    # one (times, 2^13) phase table for all 2000 times would take 250 MiB
    model = rc.make_incommensurate_model(13)
    t = np.linspace(0.0, 20.0, 2000)
    z, peak = traced_peak_mb(lambda: rc.exact_reduced_coherence(model, t))
    assert peak <= ORACLE_LIMIT_MB
    closed = rc.interference_factor(model, t) * model.system_init.matrix[1, 0]
    np.testing.assert_allclose(z, closed, rtol=0, atol=1e-12)
