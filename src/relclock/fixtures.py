"""Bundled small systems used by presets and tests.

The three-spin fixture is a correlated pure state on spins 1-3 whose support
splits into two orthogonal sectors: "spin 1 up with spins 2 and 3 opposite
and symmetric" versus "spin 1 down with spins 2 and 3 up".  Its sector
projectors form the essential family against which candidate single-spin and
pair properties are judged.
"""

from __future__ import annotations

import math

import numpy as np

from .states import DensityOperator, HilbertSpace, ProjectorFamily, tensor

_UP = np.array([1.0, 0.0], dtype=complex)
_DOWN = np.array([0.0, 1.0], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _ket(*spins: str) -> np.ndarray:
    vecs = [_UP if s == "+" else _DOWN for s in spins]
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


THREE_SPIN_SPACE = HilbertSpace((2, 2, 2))


def three_spin_state() -> DensityOperator:
    """Pure state c * (|++-> + |+-+>)/sqrt(2) + c * |-++> with c = 1/sqrt(2)."""
    c = 1 / math.sqrt(2)
    psi = c * (_ket("+", "+", "-") + _ket("+", "-", "+")) / math.sqrt(2.0) + c * _ket("-", "+", "+")
    return DensityOperator.from_vector(psi, THREE_SPIN_SPACE)


def three_spin_essential_family() -> ProjectorFamily:
    """Sector projectors of the three-spin state's support (not a resolution
    of the full 8-dimensional identity)."""
    v1 = (_ket("+", "+", "-") + _ket("+", "-", "+")) / math.sqrt(2.0)
    v2 = _ket("-", "+", "+")
    p1 = np.outer(v1, v1.conj())
    p2 = np.outer(v2, v2.conj())
    return ProjectorFamily(
        labels=("sector-up-sym", "sector-down"), projectors=(p1, p2), complete=False
    )


def spin_up_family(position: int) -> ProjectorFamily:
    """{spin at ``position`` is up, is down} on three spins."""
    ops_up = [_I2] * 3
    ops_up[position] = np.outer(_UP, _UP.conj())
    p_up = tensor(*ops_up)
    return ProjectorFamily(
        labels=(f"spin{position + 1}-up", f"spin{position + 1}-down"),
        projectors=(p_up, np.eye(8) - p_up),
        complete=True,
    )


def opposite_symmetric_family() -> ProjectorFamily:
    """{spins 2 and 3 opposite (symmetric combination), rest} on three spins."""
    sym = (np.kron(_UP, _DOWN) + np.kron(_DOWN, _UP)) / math.sqrt(2.0)
    p = np.kron(_I2, np.outer(sym, sym.conj()))
    return ProjectorFamily(
        labels=("2opposite3", "not-2opposite3"),
        projectors=(p, np.eye(8) - p),
        complete=True,
    )


def three_spin_candidates() -> list[tuple[str, ProjectorFamily]]:
    return [
        ("spin1-up", spin_up_family(0)),
        ("2opposite3", opposite_symmetric_family()),
        ("spin2-up", spin_up_family(1)),
    ]


def pointer_family_z() -> ProjectorFamily:
    """Qubit z family."""
    p0 = np.outer(_UP, _UP.conj())
    p1 = np.outer(_DOWN, _DOWN.conj())
    return ProjectorFamily(labels=("up", "down"), projectors=(p0, p1), complete=True)
