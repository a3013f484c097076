"""Dense complex operator algebra on finite-dimensional composite Hilbert spaces.

States are density matrices, observables are Hermitian matrices with cached
spectral data, and measurements are projector families.  Everything is built
on plain ``numpy.ndarray`` with ``complex128`` entries; all wrapper objects
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_PSD = 1e-9
TOL_PROJ = 1e-9
TOL_UNITARY = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.flags.writeable = False


class ValidationError(ValueError):
    """An operator failed a structural invariant (hermiticity, trace, ...)."""


def _freeze(a, dtype=complex) -> np.ndarray:
    """A read-only C-ordered copy of ``a``; ``dtype=None`` keeps its dtype."""
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.flags.writeable = False
    return out


def herm_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitize(m: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Symmetrize a numerically-Hermitian matrix; reject real asymmetry."""
    d = herm_defect(m)
    if d > tol:
        raise ValidationError(f"matrix is not Hermitian: max asymmetry {d:.3e} > {tol:.1e}")
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class HilbertSpace:
    """Composite Hilbert space given by an ordered tuple of factor dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValidationError(f"subsystem dimensions must be >= 1, got {self.dims}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __mul__(self, other: "HilbertSpace") -> "HilbertSpace":
        return HilbertSpace(self.dims + other.dims)


def _check_square(m: np.ndarray, dim: int | None = None, what: str = "operator") -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValidationError(f"{what} has dimension {m.shape[0]}, expected {dim}")


# complex entries per block of the Hermitian-defect pass (1 MiB)
_BLOCK_ENTRIES = 1 << 16


class _StackValidationError(ValidationError):
    """A member of a stack failed validation; ``index`` is the first such member."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"state {index}: {reason}")
        self.index = index
        self.reason = reason


def _check_density_stack(stack: np.ndarray) -> np.ndarray:
    """Validate a (k, d, d) stack of density matrices; return it hermitized and read-only.

    Each member passes, in order: finite entries, Hermitian defect <= TOL_HERM,
    |trace - 1| <= TOL_TRACE after hermitizing, and lambda_min >= -TOL_PSD.
    Positivity is certified by one Cholesky factorization of m + TOL_PSD I,
    which exists exactly when lambda_min > -TOL_PSD, up to the O(d eps)
    rounding that eigvalsh has as well.  Only a failed factorization runs
    eigvalsh, which decides and names the eigenvalue.  The error is a
    ``_StackValidationError`` naming the first failing member and the first
    check it fails.
    """
    m = np.asarray(stack, dtype=complex)
    k, d = m.shape[0], m.shape[-1]
    finite = np.isfinite(m).all(axis=(1, 2))
    # one contiguous m^dagger: elementwise work on a transposed view is several times slower
    h = np.conj(m.transpose(0, 2, 1), order="C")
    # the defect walks blocks of segments, whole members while one fits a block
    # and single rows beyond: a whole m - m^dagger and its modulus would hold
    # 1.5 stacks more at the peak
    seg = d * d if d * d <= _BLOCK_ENTRIES else d
    m_seg, h_seg = m.reshape(-1, seg), h.reshape(-1, seg)
    seg_defect = np.empty(m_seg.shape[0])
    step = max(1, _BLOCK_ENTRIES // seg)
    with np.errstate(invalid="ignore"):
        for start in range(0, seg_defect.size, step):
            block = m_seg[start : start + step] - h_seg[start : start + step]
            np.abs(block).max(axis=1, out=seg_defect[start : start + step])
        defect = seg_defect.reshape(k, d * d // seg).max(axis=1)
        # 0.5 (m + m^dagger) with the arithmetic of ``hermitize`` (addition commutes exactly)
        h += m
        h *= 0.5
        tr = np.trace(h, axis1=1, axis2=2).real
    bad = ~finite | (defect > TOL_HERM) | (np.abs(tr - 1.0) > TOL_TRACE)
    first = int(np.argmax(bad)) if bad.any() else k

    # members before the first structural failure may fail positivity first.
    # The shift goes onto h's own diagonal and is undone from a saved copy of
    # it: a shifted copy of h would hold one more (k, d, d) array at the peak.
    diagonal = h[:first].reshape(first, d * d)[:, :: d + 1]
    saved = diagonal.copy()
    diagonal += TOL_PSD
    try:
        np.linalg.cholesky(h[:first])
        certified = True
    except np.linalg.LinAlgError:
        certified = False
    diagonal[...] = saved
    if not certified:
        lo = np.linalg.eigvalsh(h[:first])[:, 0]
        neg = np.flatnonzero(lo < -TOL_PSD)
        if neg.size:
            i = int(neg[0])
            raise _StackValidationError(i, f"density matrix has negative eigenvalue {lo[i]:.3e}") from None
    if first < k:
        if not finite[first]:
            reason = "density matrix has non-finite entries"
        elif defect[first] > TOL_HERM:
            reason = f"matrix is not Hermitian: max asymmetry {defect[first]:.3e} > {TOL_HERM:.1e}"
        else:
            reason = f"density matrix trace {float(tr[first])!r} differs from 1 beyond {TOL_TRACE:.1e}"
        raise _StackValidationError(first, reason)
    h.flags.writeable = False
    return h


def _density_states(stack: np.ndarray, space: HilbertSpace) -> list["DensityOperator"]:
    """DensityOperators for every member of a (k, d, d) stack, validated once
    as a whole; the error of a failing member names its index."""
    m = np.asarray(stack, dtype=complex)
    dim = space.total_dim
    if m.ndim != 3 or m.shape[1:] != (dim, dim):
        raise ValidationError(f"density stack has shape {m.shape}, expected (k, {dim}, {dim})")
    states = []
    for matrix in _check_density_stack(m):
        rho = object.__new__(DensityOperator)
        object.__setattr__(rho, "_matrix", matrix)
        object.__setattr__(rho, "space", space)
        object.__setattr__(rho, "factor", None)
        object.__setattr__(rho, "_gram", None)
        states.append(rho)
    return states


class DensityOperator:
    """Unit-trace positive Hermitian matrix on a composite space.

    A state is held either as its checked matrix or as a Gram factor F of
    shape (N, k) with rho = F F^dagger.  ``from_vector`` keeps F = v (k = 1),
    and ``tensor`` keeps kron(G1, G2) of its operands' factors.  The matrix
    of a factored state is built on every access and not kept, so holding
    one costs its factor only; ``purity``, ``expectation`` and
    ``partial_trace`` work on the factor.  The window kernels of
    ``relational`` and ``events`` read every state through
    ``_gram_factor``: a dense state's factor comes from one eigh of its
    matrix, taken on first use and kept beside the matrix (up to twice its
    memory at full rank), while ``factor`` stays None.  Instances are immutable.
    """

    __slots__ = ("space", "factor", "_matrix", "_gram")

    def __init__(
        self, matrix: np.ndarray | None, space: HilbertSpace, factor: np.ndarray | None = None
    ):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_gram", None)
        self.__post_init__()

    def __post_init__(self):
        if self.factor is None:
            m = np.asarray(self._matrix, dtype=complex)
            _check_square(m, self.space.total_dim, "density matrix")
            try:
                checked = _check_density_stack(m[None])
            except _StackValidationError as exc:
                raise ValidationError(exc.reason) from None
            object.__setattr__(self, "_matrix", checked[0])
            return
        if self._matrix is not None:
            raise ValidationError("give a density matrix or a Gram factor, not both")
        # F F^dagger is Hermitian and positive by construction; tr(F F^dagger) = ||F||_F^2
        f = np.asarray(self.factor, dtype=complex)
        if f.ndim != 2 or f.shape[0] != self.space.total_dim:
            raise ValidationError(f"Gram factor has shape {f.shape}, expected ({self.space.total_dim}, k)")
        if not np.isfinite(f).all():
            raise ValidationError("Gram factor has non-finite entries")
        tr = float(np.vdot(f, f).real)
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValidationError(f"density matrix trace {tr!r} differs from 1 beyond {TOL_TRACE:.1e}")
        object.__setattr__(self, "factor", _freeze(f))

    def __setattr__(self, name, value):
        raise AttributeError(f"DensityOperator is immutable: cannot set {name!r}")

    def __reduce__(self):
        return DensityOperator, (self._matrix, self.space, self.factor)

    def __repr__(self) -> str:
        form = "dense" if self.factor is None else f"Gram factor of rank {self.factor.shape[1]}"
        return f"DensityOperator(dims={self.space.dims}, {form})"

    @property
    def matrix(self) -> np.ndarray:
        f = self.factor
        if f is None:
            return self._matrix
        # k = 1 as an elementwise outer product, which rounds like np.outer (a
        # matmul does not): a from_vector matrix keeps the dense constructor's bits
        g = f * f[:, 0].conj() if f.shape[1] == 1 else f @ f.conj().T
        # exactly Hermitian like a checked matrix: 0.5 (G + G^dagger) with the
        # arithmetic of _check_density_stack
        m = np.conj(g.T, order="C")
        m += g
        m *= 0.5
        m.flags.writeable = False
        return m

    def _gram_factor(self) -> np.ndarray:
        """F itself, or V sqrt(lambda) over the eigenpairs of one eigh of the
        checked matrix with lambda > d eps lambda_max, computed once and kept
        read-only.  The dropped eigenvalues lie within eigh's own rounding of
        zero (the checker let through lambda >= -TOL_PSD only), so dropping
        them moves the state by at most max(TOL_PSD, d eps) in operator norm,
        and a pure state keeps one column."""
        if self.factor is not None:
            return self.factor
        if self._gram is None:
            w, v = np.linalg.eigh(self._matrix)
            keep = w > w.size * np.finfo(float).eps * w[-1]
            g = v[:, keep] * np.sqrt(w[keep])
            g.flags.writeable = False
            object.__setattr__(self, "_gram", g)
        return self._gram

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, dims: Sequence[int] | HilbertSpace) -> "DensityOperator":
        space = dims if isinstance(dims, HilbertSpace) else HilbertSpace(tuple(dims))
        return cls(matrix=np.asarray(matrix, dtype=complex), space=space)

    @classmethod
    def from_factor(cls, factor: np.ndarray, dims: Sequence[int] | HilbertSpace) -> "DensityOperator":
        """The state F F^dagger of an (N, k) Gram factor F with ||F||_F = 1."""
        space = dims if isinstance(dims, HilbertSpace) else HilbertSpace(tuple(dims))
        return cls(matrix=None, space=space, factor=np.asarray(factor, dtype=complex))

    @classmethod
    def from_vector(cls, psi: np.ndarray, dims: Sequence[int] | HilbertSpace) -> "DensityOperator":
        v = np.asarray(psi, dtype=complex).ravel()
        n = np.linalg.norm(v)
        if n == 0:
            raise ValidationError("state vector is zero")
        return cls.from_factor((v / n)[:, None], dims)

    @classmethod
    def maximally_mixed(cls, dims: Sequence[int] | HilbertSpace) -> "DensityOperator":
        space = dims if isinstance(dims, HilbertSpace) else HilbertSpace(tuple(dims))
        d = space.total_dim
        return cls(matrix=np.eye(d, dtype=complex) / d, space=space)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def purity(self) -> float:
        f = self.factor
        if f is None:
            return float(np.einsum("ij,ji->", self._matrix, self._matrix).real)
        # tr (F F^dagger)^2 = ||F^dagger F||_F^2, a k x k Gram matrix
        g = f.conj().T @ f
        return float(np.vdot(g, g).real)

    def expectation(self, op: np.ndarray) -> float:
        f = self.factor
        if f is None:
            return float(np.einsum("ij,ji->", op, self._matrix).real)
        # tr(op F F^dagger) = <F, op F>
        return float(np.vdot(f, np.asarray(op, dtype=complex) @ f).real)

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        # kron(G1, G2) kron(G1, G2)^dagger = kron(G1 G1^dagger, G2 G2^dagger), and
        # ||kron(G1, G2)||_F^2 = ||G1||_F^2 ||G2||_F^2 is the product's trace check
        factor = np.kron(self._gram_factor(), other._gram_factor())
        return DensityOperator(None, self.space * other.space, factor=factor)


@dataclass(frozen=True)
class Observable:
    """Hermitian operator with a cached spectral decomposition from ``eigh``.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds orthonormal
    eigenvectors as columns.
    """

    matrix: np.ndarray
    space: HilbertSpace
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _check_square(m, self.space.total_dim, "observable")
        m = hermitize(m, TOL_HERM)
        object.__setattr__(self, "matrix", _freeze(m))
        w, v = np.linalg.eigh(self.matrix)
        unitary_defect = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))))
        if unitary_defect > TOL_UNITARY:
            raise ValidationError(f"eigenvector matrix not unitary: defect {unitary_defect:.3e}")
        object.__setattr__(self, "eigenvalues", _freeze(w, float))
        object.__setattr__(self, "eigenvectors", _freeze(v))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, dims: Sequence[int] | HilbertSpace | None = None) -> "Observable":
        m = np.asarray(matrix, dtype=complex)
        if dims is None:
            space = HilbertSpace((m.shape[0],))
        else:
            space = dims if isinstance(dims, HilbertSpace) else HilbertSpace(tuple(dims))
        return cls(matrix=m, space=space)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues))) if self.dim else 0.0


@dataclass(frozen=True)
class ProjectorFamily:
    """Orthogonal projectors labeled by eigenvalues or [lo, hi] intervals.

    When ``complete`` is set the projectors must resolve the identity.
    """

    labels: tuple
    projectors: tuple
    complete: bool = True

    def __post_init__(self):
        if len(self.labels) != len(self.projectors):
            raise ValidationError("labels and projectors must have equal length")
        projs = []
        for p in self.projectors:
            p = hermitize(np.asarray(p, dtype=complex), TOL_PROJ)
            if _norm_exceeds(p @ p - p, TOL_PROJ):
                raise ValidationError("family member is not idempotent")
            projs.append(_freeze(p))
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if _norm_exceeds(projs[i] @ projs[j], TOL_PROJ):
                    raise ValidationError(f"projectors {i} and {j} are not orthogonal")
        if self.complete and projs:
            total = sum(projs)
            if _norm_exceeds(total - np.eye(total.shape[0]), TOL_PROJ):
                raise ValidationError("family flagged complete but does not resolve the identity")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "projectors", tuple(projs))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0] if self.projectors else 0

    @cached_property
    def _stack(self) -> np.ndarray:
        """The members as one read-only (m, d, d) array."""
        return _freeze(self.projectors)

    def __len__(self) -> int:
        return len(self.projectors)

    def ranks(self) -> tuple[int, ...]:
        return tuple(int(round(p.trace().real)) for p in self.projectors)


def spectral_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _norm_exceeds(m: np.ndarray, tol: float) -> bool:
    """``spectral_norm(m) > tol``, with the SVD run only when the Frobenius
    norm, an upper bound, does not already settle it (NaN still reaches it)."""
    return not np.linalg.norm(m) <= tol and spectral_norm(m) > tol


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of square matrices, left to right."""
    mats = [np.asarray(o, dtype=complex) for o in ops]
    for m in mats:
        _check_square(m)
    return reduce(np.kron, mats)


def _kept_axes(keep: Iterable[int], n: int) -> list[int]:
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"subsystem index out of range for {n} factors: {keep}")
    return keep


def partial_trace_matrix(mat: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every factor not in ``keep``; kept factors stay in their order."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = _kept_axes(keep, n)
    m = np.asarray(mat, dtype=complex).reshape(dims + dims)
    # einsum with traced row/col axes identified
    row = list(range(n))
    col = list(range(n, 2 * n))
    for ax in range(n):
        if ax not in keep:
            col[ax] = row[ax]
    out_idx = [row[k] for k in keep] + [col[k] for k in keep]
    reduced = np.einsum(m, row + col, out_idx)
    d_keep = math.prod(dims[k] for k in keep)
    return reduced.reshape(d_keep, d_keep)


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """The reduced state on the factors in ``keep``.  A factored state stays
    factored: its traced axes move into the column index of F."""
    dims = rho.space.dims
    keep = _kept_axes(keep, len(dims))
    kept_dims = tuple(dims[k] for k in keep)
    if rho.factor is None:
        return DensityOperator.from_matrix(partial_trace_matrix(rho.matrix, dims, keep), kept_dims)
    traced = [ax for ax in range(len(dims)) if ax not in keep]
    f = rho.factor.reshape(dims + (-1,)).transpose(keep + traced + [len(dims)])
    return DensityOperator.from_factor(f.reshape(math.prod(kept_dims), -1), kept_dims)


def projector_family(obs: Observable) -> ProjectorFamily:
    """One projector per eigenvalue cluster; clusters merge eigenvalues closer
    than ``1e-8 * max(max|eigenvalue|, 1)``."""
    w, v = obs.eigenvalues, obs.eigenvectors
    grouping_tol = 1e-8 * max(obs.norm(), 1.0)
    labels: list[float] = []
    projectors: list[np.ndarray] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > grouping_tol:
            block = v[:, start:i]
            labels.append(float(np.mean(w[start:i])))
            projectors.append(block @ block.conj().T)
            start = i
    return ProjectorFamily(labels=tuple(labels), projectors=tuple(projectors), complete=True)


def interval_projector(obs: Observable, lo: float, hi: float) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue in [lo, hi].

    An empty interval yields the zero matrix.
    """
    if lo > hi:
        raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
    mask = (obs.eigenvalues >= lo) & (obs.eigenvalues <= hi)
    if not mask.any():
        return np.zeros((obs.dim, obs.dim), dtype=complex)
    block = obs.eigenvectors[:, mask]
    return block @ block.conj().T


def evolution_operator(h: Observable, t: float) -> np.ndarray:
    """exp(-i H t) through the cached spectral decomposition (hbar = 1)."""
    phases = np.exp(-1j * h.eigenvalues * t)
    return (h.eigenvectors * phases) @ h.eigenvectors.conj().T


def unitary_evolve(op, h: Observable, t: float, picture: str | None = None):
    """Evolve an operator or state for Newtonian time ``t`` under ``h``.

    Heisenberg: A(t) = e^{iHt} A e^{-iHt}.  Schroedinger: rho(t) = e^{-iHt} rho e^{iHt}.
    Defaults to Schroedinger for density operators and Heisenberg otherwise.
    """
    if picture is None:
        picture = "schrodinger" if isinstance(op, DensityOperator) else "heisenberg"
    if picture not in ("heisenberg", "schrodinger"):
        raise ValueError(f"unknown picture {picture!r}")
    u = evolution_operator(h, t)
    if isinstance(op, DensityOperator):
        if op.dim != h.dim:
            raise ValidationError(f"dimension mismatch: state {op.dim} vs hamiltonian {h.dim}")
        m = op.matrix
        out = u @ m @ u.conj().T if picture == "schrodinger" else u.conj().T @ m @ u
        return DensityOperator(matrix=out, space=op.space)
    if isinstance(op, Observable):
        if op.dim != h.dim:
            raise ValidationError(f"dimension mismatch: observable {op.dim} vs hamiltonian {h.dim}")
        m = op.matrix
        out = u.conj().T @ m @ u if picture == "heisenberg" else u @ m @ u.conj().T
        return Observable(matrix=out, space=op.space)
    m = np.asarray(op, dtype=complex)
    _check_square(m, h.dim)
    return u.conj().T @ m @ u if picture == "heisenberg" else u @ m @ u.conj().T


# -- JSON wire format ---------------------------------------------------------
#
# {"dims": [...], "re": [[...]], "im": [[...]]}, row major, full doubles.

def operator_to_json(matrix: np.ndarray, dims: Sequence[int]) -> str:
    m = np.asarray(matrix, dtype=complex)
    payload = {
        "dims": [int(d) for d in dims],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }
    return json.dumps(payload)


def operator_from_json(text: str | dict) -> tuple[np.ndarray, tuple[int, ...]]:
    payload = json.loads(text) if isinstance(text, str) else text
    dims = tuple(int(d) for d in payload["dims"])
    re = np.asarray(payload["re"], dtype=float)
    im = np.asarray(payload["im"], dtype=float)
    if re.shape != im.shape:
        raise ValidationError("re and im blocks have different shapes")
    d = math.prod(dims)
    if re.shape != (d, d):
        raise ValidationError(f"matrix shape {re.shape} does not match dims product {d}")
    return re + 1j * im, dims
