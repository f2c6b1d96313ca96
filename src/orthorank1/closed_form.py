"""Closed-form singular spectrum and SVD of A = Q + a b^T.

Multiplying by Q^T preserves singular values, so everything reduces to
B = I + x y^T with x = (Q^T a)/alpha unit and y = alpha b.  B^T B acts as the
identity off span{x, y}; on the plane it has two special eigenvalues that are
roots of a quadratic in the scalars c = x^T y and t = |y|.  The functions
below evaluate those roots in cancellation-safe form and assemble vectors.

Branches: t = 0 (A is orthogonal, all singular values 1), y parallel to x
(one special value |1 + c|), and the generic non-parallel plane (two special
values).  Branch choice only affects vector construction and bookkeeping;
the eigenvalue formulas degrade gracefully across the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FullSvd,
    InvariantScalars,
    NotUnitError,
    OrthogonalPlusRankOne,
    ZeroVectorError,
    DomainError,
    as_vector,
    invariant_scalars,
    materialize,
    _finite_scalar,
)

PARALLEL_TOL = 1e-12

# relative slack granted to |c| <= t before declaring the scalars inconsistent
CAUCHY_SCHWARZ_SLACK = 1e-12

BRANCH_ZERO_VECTOR = "zero_vector"
BRANCH_PARALLEL = "parallel"
BRANCH_NON_PARALLEL = "non_parallel"


@dataclass(frozen=True)
class NormalizedPair:
    """x = (Q^T a)/alpha (unit vector), y = alpha b, c = x^T y, t = |y|."""

    x: np.ndarray
    y: np.ndarray
    c: float
    t: float


@dataclass(frozen=True)
class SpecialEigenpair:
    """Eigenpair of B^T B on span{x, y}: eigenvalue, mixing s, unit vector.

    The vector is x + s y normalized; everything orthogonal to the plane
    keeps eigenvalue 1 and is not represented here.
    """

    eigenvalue: float
    mixing: float
    vector: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Extreme singular values plus branch bookkeeping.

    unit_multiplicity counts singular values exactly 1: n-2 (non-parallel),
    n-1 (parallel), or n (zero vector).  sign_term is sign(1 + gamma) with
    sign(0) taken as +1; the choice cannot be observed because 1 + gamma = 0
    forces sigma_min = 0.
    """

    sigma_max: float
    sigma_min: float
    unit_multiplicity: int
    branch: str
    sign_term: int


def normalize_pair(
    scalars: InvariantScalars,
    a,
    b,
    q_transpose_a,
) -> NormalizedPair:
    """Reduce A = Q + a b^T to the identity-update frame I + x y^T."""
    if scalars.alpha == 0.0 or scalars.beta == 0.0:
        raise ZeroVectorError("both update vectors must be nonzero")
    qta = as_vector(q_transpose_a, "q_transpose_a")
    bb = as_vector(b, "b")
    x = qta / scalars.alpha
    y = scalars.alpha * bb
    return NormalizedPair(x, y, float(x @ y), float(np.linalg.norm(y)))


def _check_scalars(c: float, t: float) -> tuple[float, float]:
    c = _finite_scalar(c, "c")
    t = _finite_scalar(t, "t")
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if abs(c) > t * (1.0 + CAUCHY_SCHWARZ_SLACK):
        raise DomainError(f"|c| = {abs(c)} exceeds t = {t}: no vector pair has these scalars")
    # roundoff may leave |c| marginally above t; pull it back into the slab
    return min(max(c, -t), t), t


def special_eigenvalues(c: float, t: float) -> tuple[float, float]:
    """The two eigenvalues of B^T B on span{x, y}, largest first.

    lambda1 uses the explicit root; lambda2 comes from the product
    lambda1 * lambda2 = (1 + c)^2, which stays accurate where the
    subtractive root formula cancels.
    """
    c, t = _check_scalars(c, t)
    disc = 4.0 + 4.0 * c + t * t
    if disc < 0.0:
        # equals |2x + y|^2, so only roundoff can land here
        disc = 0.0
    lam1 = 1.0 + c + 0.5 * t * t + 0.5 * t * math.sqrt(disc)
    lam2 = (1.0 + c) ** 2 / lam1 if lam1 > 0.0 else 0.0
    return lam1, lam2


def mixing_coefficients(c: float, t: float) -> tuple[float, float]:
    """Roots s of s^2 - s - (1 + c)/t^2 = 0; v = x + s y is an eigenvector.

    s_plus pairs with lambda1, s_minus with lambda2 (lambda = 1 + c + s t^2).
    s_minus uses Vieta's product s_plus * s_minus = -(1 + c)/t^2.
    """
    c, t = _check_scalars(c, t)
    if t == 0.0:
        raise DomainError("mixing coefficients need t > 0")
    disc = max(4.0 + 4.0 * c + t * t, 0.0)
    s_plus = 0.5 + math.sqrt(disc) / (2.0 * t)
    s_minus = -(1.0 + c) / (t * t * s_plus)
    return s_plus, s_minus


def _rejection(pair: NormalizedPair) -> np.ndarray:
    """y minus its x component, with one reorthogonalization pass."""
    rej = pair.y - pair.c * pair.x
    rej -= (pair.x @ rej) * pair.x
    return rej


def _sign_term(gamma: float) -> int:
    return 1 if 1.0 + gamma >= 0.0 else -1


def spectrum(m: OrthogonalPlusRankOne, parallel_tol: float = PARALLEL_TOL) -> Spectrum:
    """Extreme singular values of A from the three invariant scalars."""
    scal = invariant_scalars(m)
    n = m.dim
    sign = _sign_term(scal.gamma)
    if scal.alpha * scal.beta == 0.0:
        return Spectrum(1.0, 1.0, n, BRANCH_ZERO_VECTOR, sign)
    pair = normalize_pair(scal, m.a, m.b, m.q_transpose_a())
    rejection_norm = float(np.linalg.norm(_rejection(pair)))
    parallel = rejection_norm <= parallel_tol * pair.t
    if parallel and n == 1:
        # no unit pool in one dimension; the lone singular value is |1 + mu|
        sig = abs(1.0 + pair.c)
        return Spectrum(sig, sig, 0, BRANCH_PARALLEL, sign)
    lam1, lam2 = special_eigenvalues(pair.c, pair.t)
    if parallel:
        return Spectrum(math.sqrt(lam1), math.sqrt(lam2), n - 1, BRANCH_PARALLEL, sign)
    return Spectrum(math.sqrt(lam1), math.sqrt(lam2), n - 2, BRANCH_NON_PARALLEL, sign)


def theorem_residual(m: OrthogonalPlusRankOne) -> float:
    """|sigma_max - sign(1 + gamma) sigma_min - alpha beta|."""
    scal = invariant_scalars(m)
    spec = spectrum(m)
    return abs(spec.sigma_max - spec.sign_term * spec.sigma_min - scal.alpha * scal.beta)


def _plane_vectors(
    pair: NormalizedPair, rhat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Unit eigenvectors (v1 for lambda1, v2 for lambda2) on span{x, rhat}.

    Whichever of x + s_plus y, x + s_minus y keeps more of its length is
    trusted; the other direction is its 90 degree rotation within the plane,
    which sidesteps the cancellation that makes the short combination noisy.
    """
    x, y, t = pair.x, pair.y, pair.t
    s_plus, s_minus = mixing_coefficients(pair.c, pair.t)
    w_plus = x + s_plus * y
    w_minus = x + s_minus * y
    norm_plus = float(np.linalg.norm(w_plus))
    norm_minus = float(np.linalg.norm(w_minus))
    rel_plus = norm_plus / (1.0 + abs(s_plus) * t)
    rel_minus = norm_minus / (1.0 + abs(s_minus) * t)
    if rel_plus >= rel_minus:
        anchor = w_plus / norm_plus
        anchor_is_plus = True
    else:
        anchor = w_minus / norm_minus
        anchor_is_plus = False
    p = float(x @ anchor)
    q = float(rhat @ anchor)
    other = q * x - p * rhat
    other /= float(np.linalg.norm(other))
    if anchor_is_plus:
        return anchor, other, s_plus, s_minus
    return other, anchor, s_plus, s_minus


def special_eigenpairs(
    m: OrthogonalPlusRankOne, parallel_tol: float = PARALLEL_TOL
) -> tuple[SpecialEigenpair, ...]:
    """Assembled eigenpairs of B^T B acting nontrivially (empty when a b^T = 0)."""
    scal = invariant_scalars(m)
    if scal.alpha * scal.beta == 0.0:
        return ()
    pair = normalize_pair(scal, m.a, m.b, m.q_transpose_a())
    rej = _rejection(pair)
    rejection_norm = float(np.linalg.norm(rej))
    if rejection_norm <= parallel_tol * pair.t:
        mu = pair.c
        return (SpecialEigenpair((1.0 + mu) ** 2, 0.0, pair.x.copy()),)
    v1, v2, s_plus, s_minus = _plane_vectors(pair, rej / rejection_norm)
    lam1, lam2 = special_eigenvalues(pair.c, pair.t)
    return (
        SpecialEigenpair(lam1, s_plus, v1),
        SpecialEigenpair(lam2, s_minus, v2),
    )


def _complement_basis(
    anchors: np.ndarray, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Orthonormal complement of the k orthonormal anchor columns, Householder.

    Columns k .. k + count of the anchors' complete Householder Q factor
    (Golub & Van Loan, Matrix Computations, 5.1), deterministic with no seeds
    to skip and no retry.  Q = I - W T W^T in compact WY form, so the block is
    one rank-k update of identity columns, written into `out` when given: no
    n x n Q is formed.
    """
    n, k = anchors.shape
    h, tau = np.linalg.qr(anchors, mode="raw")
    w = np.tril(h.T, -1)  # reflector vectors, below their unit leading entries
    np.fill_diagonal(w, 1.0)
    z = tau[:, None] * w[k : k + count].T  # T W^T on the kept rows
    if k == 2:
        z[0] -= tau[0] * float(w[:, 0] @ w[:, 1]) * z[1]
    if out is None:
        out = np.empty((n, count))
    np.matmul(-w, z, out=out)
    diag = np.arange(count)
    out[k + diag, diag] += 1.0
    return out


def full_svd(m: OrthogonalPlusRankOne, parallel_tol: float = PARALLEL_TOL) -> FullSvd:
    """A = U diag(sigma) V^T with sigma sorted nonincreasing.

    V holds the 1 (parallel) or 2 (non-parallel) special plane directions
    plus a Householder complement with singular value 1 each.  B = I + x y^T
    is the identity on span{x, y}^perp, so the complement columns of U before
    the final Q are those of V.  In the plane, the small singular direction
    is built by rotating u1 within the invariant plane: dividing B v2 by a
    tiny sigma2 would amplify roundoff and lose orthogonality precisely on
    near-singular instances.
    """
    n = m.dim
    scal = invariant_scalars(m)
    if scal.alpha * scal.beta == 0.0:
        u = np.eye(n) if m.q is None else m.q.matrix.copy()
        return FullSvd(u, np.ones(n), np.eye(n))
    pair = normalize_pair(scal, m.a, m.b, m.q_transpose_a())
    x, y = pair.x, pair.y
    rej = _rejection(pair)
    rejection_norm = float(np.linalg.norm(rej))

    if rejection_norm <= parallel_tol * pair.t:
        plane_v = x[:, None]
        plane_u = float(_sign_term(pair.c)) * plane_v
        plane_sigma = [abs(1.0 + pair.c)]
    else:
        rhat = rej / rejection_norm
        v1, v2, _, _ = _plane_vectors(pair, rhat)
        lam1, lam2 = special_eigenvalues(pair.c, pair.t)
        w1 = x * float(y @ v1) + v1
        u1 = w1 / float(np.linalg.norm(w1))
        u2 = float(rhat @ u1) * x - float(x @ u1) * rhat
        u2 /= float(np.linalg.norm(u2))
        w2 = x * float(y @ v2) + v2
        if float(w2 @ u2) < 0.0:
            u2 = -u2
        plane_v = np.column_stack((v1, v2))
        plane_u = np.column_stack((u1, u2))
        plane_sigma = [math.sqrt(lam1), math.sqrt(lam2)]

    # plane values at or above 1 lead the unit block, the rest trail it; V and
    # U are the only n x n arrays allocated
    k = len(plane_sigma)
    lead = sum(1 for s in plane_sigma if s >= 1.0)
    trail = n - k + lead
    v_mat = np.empty((n, n))
    v_mat[:, :lead] = plane_v[:, :lead]
    v_mat[:, trail:] = plane_v[:, lead:]
    _complement_basis(plane_v, n - k, out=v_mat[:, lead:trail])
    if m.q is None:
        u_mat = v_mat.copy()
    else:
        u_mat = m.q.matrix @ v_mat
        plane_u = m.q.matrix @ plane_u
    u_mat[:, :lead] = plane_u[:, :lead]
    u_mat[:, trail:] = plane_u[:, lead:]
    sigma = np.concatenate((plane_sigma[:lead], np.ones(n - k), plane_sigma[lead:]))
    return FullSvd(u_mat, sigma, v_mat)


def lemma1_gap(x, y) -> tuple[float, float]:
    """Slacks of |x+y|^2 + |y||2x+y| >= 1 >= |x+y|^2 - |y||2x+y| for unit x.

    Returns (upper_slack, lower_slack); both are nonnegative up to roundoff.

    Writing c = x^T y, t = |y|, the two slacks are t|2x+y| +- (2c + t^2) and
    their product is 4(t - c)(t + c) exactly.  Evaluating |x+y|^2 - 1 head-on
    loses the tight case (y parallel to x at large |y|) to cancellation, so
    the slack that cancels is recovered from the product instead; its error
    stays near machine epsilon at every scale.
    """
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    if xv.shape != yv.shape:
        raise ValueError(f"x and y must share a length, got {xv.shape} vs {yv.shape}")
    if abs(float(np.linalg.norm(xv)) - 1.0) > 1e-10:
        raise NotUnitError("x must be a unit vector")
    c = float(xv @ yv)
    t = float(np.linalg.norm(yv))
    cross = t * float(np.linalg.norm(2.0 * xv + yv))
    diff = 2.0 * c + t * t
    product = 4.0 * (t - c) * (t + c)
    if diff >= 0.0:
        upper = diff + cross
        lower = product / upper if upper > 0.0 else 0.0
    else:
        lower = cross - diff
        upper = product / lower if lower > 0.0 else 0.0
    return upper, lower


def rank_revelation_residual(m: OrthogonalPlusRankOne) -> float:
    """max |A^T A - I - (x+y)(x+y)^T + x x^T| for the identity variant."""
    if m.q is not None:
        raise ValueError("defined for the identity variant; reduce general Q first")
    scal = invariant_scalars(m)
    pair = normalize_pair(scal, m.a, m.b, m.a)
    dense = materialize(m)
    n = m.dim
    xy = pair.x + pair.y
    residual = dense.T @ dense - np.eye(n) - np.outer(xy, xy) + np.outer(pair.x, pair.x)
    return float(np.abs(residual).max())
