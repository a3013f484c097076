"""Input states for the oracle tests, in either form a DensityOperator holds.

``"dense"`` builds the state from its matrix; ``"factored"`` keeps a Gram
factor F with rho = F F^dagger, so the window kernel takes its factored path.
The oracles always read ``rho.matrix``, whichever form the state has.
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
