"""Independent ground truth: one-sided Jacobi SVD and seeded instance generation.

Nothing here shares numerics with the closed-form module.  The Jacobi sweep
works on any dense square matrix; the generators produce orthogonal matrices
and vector pairs covering every branch of the rank-one update problem.

Randomness discipline: PCG64 seeded through SeedSequence, so a seed may be a
single integer or a tuple such as (campaign_seed, trial_index), making trial
streams order-independent.  Gaussians come from a Box-Muller transform of
uniform draws: a fixed number of draws per sample, no rejection, so streams
are stable across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FullSvd,
    OrthogonalMatrix,
    OrthogonalPlusRankOne,
    as_matrix,
    validate_orthogonal,
)

SCALE_RANGE_DEFAULT = (1e-3, 1e3)
NEAR_PARALLEL_EPSILON_DEFAULT = 1e-8

Q_MODES = ("identity", "permutation", "haar")
VECTOR_MODES = ("gaussian", "parallel_pair", "near_parallel", "singular_pair", "zero")


class NoConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted without meeting the off-diagonal threshold."""

    def __init__(self, max_sweeps: int):
        self.max_sweeps = max_sweeps
        super().__init__(f"no convergence within {max_sweeps} sweeps")


@dataclass(frozen=True)
class JacobiConfig:
    sweep_tol: float = 1e-14
    max_sweeps: int = 60

    def __post_init__(self):
        if not self.sweep_tol > 0.0:
            raise ValueError(f"sweep_tol must be positive, got {self.sweep_tol}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be at least 1, got {self.max_sweeps}")


def make_rng(seed) -> np.random.Generator:
    """PCG64 generator from an integer seed or a tuple of integers."""
    if isinstance(seed, (int, np.integer)):
        entropy = (int(seed),)
    else:
        entropy = tuple(int(part) for part in seed)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def standard_gaussian(rng: np.random.Generator, count: int) -> np.ndarray:
    """count standard normals via Box-Muller on uniform draws.

    Two uniforms per pair of normals, always consumed, never rejected; the
    stream for a given generator state is reproducible everywhere.
    """
    if count <= 0:
        return np.empty(0)
    half = (count + 1) // 2
    # computed in place, one scratch buffer: a Haar sample at n = 1024 draws
    # 8 MB of normals, and each temporary would add 4 MB to the peak
    radius = rng.random(half)
    np.subtract(1.0, radius, out=radius)  # in (0, 1], keeps the log finite
    angle = rng.random(half)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    z = np.empty(2 * half)
    scratch = np.cos(angle)
    scratch *= radius
    z[0::2] = scratch
    np.sin(angle, out=scratch)
    scratch *= radius
    z[1::2] = scratch
    return z[:count]


def _round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Tournament schedule: n-1 rounds of disjoint pairs covering all pairs."""
    m = n + (n % 2)  # odd n gets a bye slot
    order = list(range(m))
    rounds = []
    for _ in range(m - 1):
        left, right = [], []
        for k in range(m // 2):
            i, j = order[k], order[m - 1 - k]
            if i < n and j < n:
                left.append(min(i, j))
                right.append(max(i, j))
        rounds.append((np.asarray(left), np.asarray(right)))
        order = [order[0], order[-1], *order[1:-1]]
    return rounds


def jacobi_svd(m, config: JacobiConfig | None = None) -> FullSvd:
    """One-sided Jacobi SVD of a square matrix.

    Plane rotations orthogonalize column pairs until every normalized
    off-diagonal inner product is at most sweep_tol.  Pairs within a round
    are disjoint, so each round rotates them all at once.  Singular values
    are the final column norms; columns indistinguishable from zero get
    their U columns completed orthonormally.
    """
    cfg = config if config is not None else JacobiConfig()
    w = as_matrix(m, "m").copy()
    n = w.shape[0]
    v = np.eye(n)
    if n > 1:
        rounds = _round_robin_rounds(n)
        for _ in range(cfg.max_sweeps):
            rotated = False
            for left, right in rounds:
                cols_p = w[:, left]
                cols_q = w[:, right]
                app = np.einsum("ij,ij->j", cols_p, cols_p)
                aqq = np.einsum("ij,ij->j", cols_q, cols_q)
                apq = np.einsum("ij,ij->j", cols_p, cols_q)
                active = np.abs(apq) > cfg.sweep_tol * np.sqrt(app * aqq)
                if not active.any():
                    continue
                rotated = True
                if not active.all():
                    left = left[active]
                    right = right[active]
                    cols_p = cols_p[:, active]
                    cols_q = cols_q[:, active]
                    app = app[active]
                    aqq = aqq[active]
                    apq = apq[active]
                # active pairs have apq != 0, so tau is finite
                tau = (aqq - app) / (2.0 * apq)
                tan = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                tan = np.where(tau == 0.0, 1.0, tan)  # equal norms: 45 degrees
                cos = 1.0 / np.sqrt(1.0 + tan * tan)
                sin = cos * tan
                w[:, left] = cos * cols_p - sin * cols_q
                w[:, right] = sin * cols_p + cos * cols_q
                vp = v[:, left]
                vq = v[:, right]
                v[:, left] = cos * vp - sin * vq
                v[:, right] = sin * vp + cos * vq
            if not rotated:
                break
        else:
            raise NoConvergenceError(cfg.max_sweeps)
    norms = np.linalg.norm(w, axis=0)
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    w = w[:, order]
    v = v[:, order]
    u = np.zeros((n, n))
    cutoff = float(norms[0]) * n * np.finfo(float).eps
    pending = []
    for j in range(n):
        if norms[j] > cutoff:
            u[:, j] = w[:, j] / norms[j]
        else:
            pending.append(j)
    if pending:
        _complete_columns(u, pending)
    return FullSvd(u, norms, v)


def _complete_columns(u: np.ndarray, pending: list[int]) -> None:
    """Fill the listed (zero) columns of u with an orthonormal completion."""
    n = u.shape[0]
    seed_index = 0
    for j in pending:
        while seed_index < n:
            cand = np.zeros(n)
            cand[seed_index] = 1.0
            seed_index += 1
            cand -= u @ (u.T @ cand)
            cand -= u @ (u.T @ cand)
            length = float(np.linalg.norm(cand))
            if length > 1e-8:
                u[:, j] = cand / length
                break
        else:
            raise RuntimeError("orthonormal completion ran out of seeds")


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    Householder QR of a Gaussian sample; each reflector's sign is fixed from
    the corresponding diagonal entry of R (zero counts as positive), which
    makes the distribution exactly Haar rather than QR-convention-biased.
    """
    g = standard_gaussian(rng, n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    q *= np.where(signs == 0.0, 1.0, signs)
    return q


def random_orthogonal(n: int, seed) -> OrthogonalMatrix:
    """Seeded Haar orthogonal matrix, validated before return."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return validate_orthogonal(haar_orthogonal(make_rng(seed), n))


@dataclass(frozen=True)
class InstanceDistribution:
    """Sampling recipe for A = Q + a b^T instances.

    epsilon is the angular offset used by near_parallel; scale_range bounds
    |a| and |b|, sampled log-uniformly.
    """

    dim: int
    q_mode: str = "haar"
    vector_mode: str = "gaussian"
    epsilon: float = NEAR_PARALLEL_EPSILON_DEFAULT
    scale_range: tuple[float, float] = SCALE_RANGE_DEFAULT

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be at least 2 for non-parallel coverage")
        if self.q_mode not in Q_MODES:
            raise ValueError(f"unknown q_mode {self.q_mode!r}; expected one of {Q_MODES}")
        if self.vector_mode not in VECTOR_MODES:
            raise ValueError(
                f"unknown vector_mode {self.vector_mode!r}; expected one of {VECTOR_MODES}"
            )
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        lo, hi = self.scale_range
        if not (0.0 < lo <= hi):
            raise ValueError(f"scale_range must be ordered and positive, got {self.scale_range}")


def _permutation_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    perm = rng.permutation(n)
    mat = np.zeros((n, n))
    mat[perm, np.arange(n)] = 1.0  # column j carries e_perm[j]
    return mat


def sample_instance(dist: InstanceDistribution, seed) -> OrthogonalPlusRankOne:
    """Draw one instance; deterministic in (dist, seed).

    parallel_pair sets b = mu (Q^T a) with signed log-uniform mu, so y is an
    exact scalar multiple of x.  singular_pair rescales a generic b so that
    1 + a^T Q b = 0 up to one rounding.  near_parallel tilts b away from
    Q^T a by angle asin(epsilon).  zero sets a = 0.
    """
    rng = make_rng(seed)
    n = dist.dim
    if dist.q_mode == "identity":
        q = None
    elif dist.q_mode == "permutation":
        q = OrthogonalMatrix(_permutation_matrix(rng, n), 0.0)
    else:
        q = validate_orthogonal(haar_orthogonal(rng, n))

    lo, hi = dist.scale_range

    def log_uniform(low: float, high: float) -> float:
        return low * (high / low) ** rng.random()

    def direction() -> np.ndarray:
        g = standard_gaussian(rng, n)
        length = float(np.linalg.norm(g))
        if length == 0.0:  # unreachable in float practice; keep total
            g = np.zeros(n)
            g[0] = 1.0
            length = 1.0
        return g / length

    def coin() -> float:
        return 1.0 if rng.random() < 0.5 else -1.0

    def unit_perp(base: np.ndarray) -> np.ndarray:
        cand = standard_gaussian(rng, n)
        cand -= (base @ cand) * base
        cand -= (base @ cand) * base
        length = float(np.linalg.norm(cand))
        if length < 1e-8:
            # deterministic fallback: some basis vector leans away from base
            for i in range(n):
                cand = np.zeros(n)
                cand[i] = 1.0
                cand -= (base @ cand) * base
                cand -= (base @ cand) * base
                length = float(np.linalg.norm(cand))
                if length > 0.5:
                    break
        return cand / length

    mode = dist.vector_mode
    if mode == "zero":
        return OrthogonalPlusRankOne(q, np.zeros(n), log_uniform(lo, hi) * direction())

    a = log_uniform(lo, hi) * direction()
    qta = a if q is None else q.matrix.T @ a

    if mode == "gaussian":
        b = log_uniform(lo, hi) * direction()
    elif mode == "parallel_pair":
        beta = log_uniform(lo, hi)
        mu = coin() * beta / float(np.linalg.norm(qta))
        b = mu * qta
    elif mode == "near_parallel":
        xhat = qta / float(np.linalg.norm(qta))
        tilt = unit_perp(xhat)
        eps = dist.epsilon
        along = math.sqrt(max(1.0 - eps * eps, 0.0))
        b = (log_uniform(lo, hi) * coin()) * (along * xhat + eps * tilt)
    else:  # singular_pair
        xhat = qta / float(np.linalg.norm(qta))
        tilt = unit_perp(xhat)
        # bounded tilt keeps |a||b| moderate, so 1 + gamma = 0 survives in float
        spread = log_uniform(1e-3, 30.0)
        raw = coin() * xhat + spread * tilt
        gamma_raw = float(a @ raw) if q is None else float(a @ (q.matrix @ raw))
        b = raw / (-gamma_raw)
    return OrthogonalPlusRankOne(q, a, b)
