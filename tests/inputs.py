"""Input states for the oracle tests, in each form a DensityOperator takes.

``"dense"`` builds the state from its matrix, so the window kernel reads it
through the Gram factor of one eigh of that matrix; ``"factored"`` keeps a
Gram factor F with rho = F F^dagger from the start.  Either way a
conditioned state stays a factor while ``_keeps_factor`` holds.
``"wide"`` is the dense form's state with a factor of more columns than
rows (``widen``), so that every conditioned state is accumulated dense by
the window sandwich.  The oracles always read ``rho.matrix``, whichever
form the state has.
"""

import math

import numpy as np

import relclock as rc

import oracles

FORMS = ("dense", "factored")


def widen(rho: rc.DensityOperator) -> rc.DensityOperator:
    """The state of ``rho`` as a Gram factor of more columns than rows: each
    column of its factor repeated and scaled by 1/sqrt(copies), which leaves
    F F^dagger as it is."""
    f = rho._gram_factor()
    copies = rho.dim // f.shape[1] + 1
    return rc.DensityOperator.from_factor(np.repeat(f, copies, axis=1) / math.sqrt(copies), rho.space)


def qubit_state(rng, form: str = "dense") -> rc.DensityOperator:
    """A random mixed qubit: a dense matrix, or a rank-2 Gram factor."""
    if form != "factored":
        return rc.DensityOperator.from_matrix(oracles.random_density(rng, 2), (2,))
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return rc.DensityOperator.from_factor(g / np.linalg.norm(g), (2,))


def entangled_state(rng, clock, d_sys: int, form: str = "dense") -> rc.DensityOperator:
    """The pure boosted-packet state of ``oracles``: its density matrix, the
    vector itself through ``from_vector``, or that vector widened."""
    psi = oracles.boosted_packet_vector(rng, clock.psi0, clock.x, d_sys)
    if form == "dense":
        return rc.DensityOperator.from_matrix(np.outer(psi, psi.conj()), (clock.n, d_sys))
    rho = rc.DensityOperator.from_vector(psi, (clock.n, d_sys))
    return widen(rho) if form == "wide" else rho


def product_state(clock, rho_sys: rc.DensityOperator, form: str = "dense") -> rc.DensityOperator:
    """The clock packet times ``rho_sys``: ``tensor`` always keeps a Gram
    factor, so the dense form is built from the checked Kronecker product."""
    if form == "dense":
        matrix = np.kron(clock.rho0.matrix, rho_sys.matrix)
        return rc.DensityOperator.from_matrix(matrix, clock.space * rho_sys.space)
    rho = clock.rho0.tensor(rho_sys)
    return widen(rho) if form == "wide" else rho
