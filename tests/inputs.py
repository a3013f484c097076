"""Input states for the oracle tests, in either form a DensityOperator holds.

``"dense"`` builds the state from its matrix, so the window kernel takes its
dense path; ``"factored"`` keeps a Gram factor F with rho = F F^dagger, so it
takes its factored path.  The oracles always read ``rho.matrix``, whichever
form the state has.
"""

import numpy as np

import relclock as rc

import oracles

FORMS = ("dense", "factored")


def qubit_state(rng, form: str = "dense") -> rc.DensityOperator:
    """A random mixed qubit: a dense matrix, or a rank-2 Gram factor."""
    if form == "dense":
        return rc.DensityOperator.from_matrix(oracles.random_density(rng, 2), (2,))
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return rc.DensityOperator.from_factor(g / np.linalg.norm(g), (2,))


def entangled_state(rng, clock, d_sys: int, form: str = "dense") -> rc.DensityOperator:
    """The pure boosted-packet state of ``oracles``: its density matrix, or
    the vector itself through ``from_vector``."""
    psi = oracles.boosted_packet_vector(rng, clock.psi0, clock.x, d_sys)
    if form == "dense":
        return rc.DensityOperator.from_matrix(np.outer(psi, psi.conj()), (clock.n, d_sys))
    return rc.DensityOperator.from_vector(psi, (clock.n, d_sys))


def product_state(clock, rho_sys: rc.DensityOperator, form: str = "dense") -> rc.DensityOperator:
    """The clock packet times ``rho_sys``: ``tensor`` always keeps a Gram
    factor, so the dense form is built from the checked Kronecker product."""
    if form == "dense":
        matrix = np.kron(clock.rho0.matrix, rho_sys.matrix)
        return rc.DensityOperator.from_matrix(matrix, clock.space * rho_sys.space)
    return clock.rho0.tensor(rho_sys)
