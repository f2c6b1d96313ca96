"""Domain types for orthogonal-plus-rank-one matrices.

The central object is A = Q + a b^T with Q square orthogonal.  Everything
downstream (closed-form spectra, the Jacobi cross-check, the verification
harness) consumes the validated containers defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ORTHOGONALITY_TOL = 1e-10


class NotSquareError(ValueError):
    """Matrix input is not two-dimensional square."""


class NonFiniteEntryError(ValueError):
    """Array input contains NaN or infinity."""


class ZeroVectorError(ValueError):
    """A vector that must be nonzero has norm zero."""


class NotUnitError(ValueError):
    """A vector that must have unit norm does not."""


class DomainError(ValueError):
    """Scalar inputs lie outside the admissible region."""


class NotOrthogonalError(ValueError):
    """Matrix fails the orthogonality check; carries the measured defect."""

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            f"orthogonality defect {self.defect:.3e} exceeds tolerance {self.tol:.3e}"
        )


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-d array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError(f"{name} contains non-finite entries")
    return arr


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 square matrix."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NotSquareError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError(f"{name} contains non-finite entries")
    return arr


def orthogonality_defect(q: np.ndarray) -> float:
    """max |Q^T Q - I|, the entrywise deviation from orthonormal columns."""
    gram = q.T @ q
    gram.reshape(-1)[:: gram.shape[0] + 1] -= 1.0  # in place: no n x n temporaries
    return float(np.abs(gram, out=gram).max())


@dataclass(frozen=True)
class OrthogonalMatrix:
    """A dense matrix together with its measured orthogonality defect."""

    matrix: np.ndarray
    defect: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_orthogonal(q, tol: float = ORTHOGONALITY_TOL) -> OrthogonalMatrix:
    """Check max |Q^T Q - I| <= tol and wrap the matrix.

    Raises NotOrthogonalError with the measured defect on failure.
    """
    arr = as_matrix(q, "q")
    defect = orthogonality_defect(arr)
    if defect > tol:
        raise NotOrthogonalError(defect, tol)
    return OrthogonalMatrix(arr, defect)


@dataclass(frozen=True)
class OrthogonalPlusRankOne:
    """A = Q + a b^T.  q is None for the symbolic identity (A = I + a b^T).

    a and b are stored as read-only copies, so later writes to the caller's
    arrays cannot change the instance.  Q^T a, the one matvec every closed-form
    route needs, is computed here once and shared by all of them.  Q itself is
    held by reference, not copied: writing to q.matrix afterwards leaves the
    stored Q^T a describing the old Q.
    """

    q: OrthogonalMatrix | None
    a: np.ndarray
    b: np.ndarray
    _qta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _read_only(as_vector(np.array(self.a, dtype=float), "a"))
        b = _read_only(as_vector(np.array(self.b, dtype=float), "b"))
        if a.shape != b.shape:
            raise ValueError(f"a and b must share a length, got {a.shape} vs {b.shape}")
        if self.q is not None and self.q.dim != a.shape[0]:
            raise ValueError(
                f"q is {self.q.dim}x{self.q.dim} but vectors have length {a.shape[0]}"
            )
        qta = a if self.q is None else _read_only(self.q.matrix.T @ a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_qta", qta)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def q_transpose_a(self) -> np.ndarray:
        """Q^T a (read-only), computed at construction; a itself when Q = I."""
        return self._qta


def _read_only(v: np.ndarray) -> np.ndarray:
    v.flags.writeable = False
    return v


def identity_plus_outer(a, b) -> OrthogonalPlusRankOne:
    """The identity update I + a b^T."""
    return OrthogonalPlusRankOne(None, a, b)


@dataclass(frozen=True)
class InvariantScalars:
    """alpha = |a|, beta = |b|, gamma = a^T Q b.

    The three scalars determine the singular spectrum of Q + a b^T.
    """

    alpha: float
    beta: float
    gamma: float


def invariant_scalars(m: OrthogonalPlusRankOne) -> InvariantScalars:
    """(alpha, beta, gamma) with gamma = (Q^T a)^T b from the stored Q^T a; no matvec."""
    alpha = float(np.linalg.norm(m.a))
    beta = float(np.linalg.norm(m.b))
    gamma = float(m.q_transpose_a() @ m.b)
    return InvariantScalars(alpha, beta, gamma)


def materialize(m: OrthogonalPlusRankOne) -> np.ndarray:
    """Dense A = Q + a b^T."""
    dense = np.outer(m.a, m.b)  # the only n x n allocation
    if m.q is None:
        dense.reshape(-1)[:: m.dim + 1] += 1.0
    else:
        dense += m.q.matrix
    return dense


@dataclass(frozen=True)
class FullSvd:
    """Factorization A = U diag(sigma) V^T with sigma sorted nonincreasing."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


def reconstruction_error(m: OrthogonalPlusRankOne, svd: FullSvd) -> float:
    """Frobenius distance |A - U diag(sigma) V^T|_F."""
    dense = materialize(m)
    return float(np.linalg.norm(dense - (svd.u * svd.sigma) @ svd.v.T))


def orthonormality_defects(svd: FullSvd) -> tuple[float, float]:
    """(max |U^T U - I|, max |V^T V - I|)."""
    return orthogonality_defect(svd.u), orthogonality_defect(svd.v)


def _finite_scalar(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value
