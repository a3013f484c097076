"""Peak traced allocation of the conditioning quadratures on large clocks.

At the README's clock parameters with n = 512 (nt = 104, qubit system) one
dense (nt, n d, n d) complex stack takes 1.7 GB.  The factored window kernel
builds no full-space stack, so each call must stay below ``LIMIT_MB``.  A pure
state kept as a Gram factor goes further: at n = 16384 its dense matrix alone
would take 16 GiB.  No timing is asserted.  Each test also checks its result
through an independent path, since at these sizes the kernel walks the time
grid in several chunks.
"""

import tracemalloc

import numpy as np
import pytest

import relclock as rc
from relclock import fixtures

from inputs import product_state

LIMIT_MB = 256.0
T0 = 2.0
PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


@pytest.fixture(scope="module")
def readme_case():
    clock = rc.build_free_particle_clock(512, mass=30.0, sigma0=0.4, delta_c=0.35, tau=6.0)
    assert clock.default_t_grid().size == 104
    # the dense input keeps the dense branch of the window kernel under these bounds
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
