"""Jacobi oracle, instance samplers, RNG discipline."""

import math

import numpy as np
import pytest

from orthorank1.closed_form import spectrum
from orthorank1.core import invariant_scalars, materialize, orthogonality_defect
from orthorank1.oracle import (
    InstanceDistribution,
    JacobiConfig,
    NoConvergenceError,
    haar_orthogonal,
    jacobi_svd,
    make_rng,
    random_orthogonal,
    sample_instance,
    standard_gaussian,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def assert_svd_of(dense, svd, tol=1e-12):
    scale = max(1.0, float(np.linalg.norm(dense)))
    recon = (svd.u * svd.sigma) @ svd.v.T
    assert float(np.linalg.norm(dense - recon)) <= tol * scale
    assert orthogonality_defect(svd.u) <= tol
    assert orthogonality_defect(svd.v) <= tol
    assert np.all(np.diff(svd.sigma) <= 0.0)


def test_jacobi_diagonal_matrix():
    dense = np.diag([2.0, 1.0])
    svd = jacobi_svd(dense)
    assert svd.sigma.tolist() == [2.0, 1.0]
    assert_svd_of(dense, svd)


def test_jacobi_swap_matrix_all_unit():
    dense = np.array([[0.0, 1.0], [1.0, 0.0]])
    svd = jacobi_svd(dense)
    assert svd.sigma.tolist() == [1.0, 1.0]
    assert_svd_of(dense, svd)


def test_jacobi_shear_golden_ratio():
    dense = np.array([[1.0, 1.0], [0.0, 1.0]])
    svd = jacobi_svd(dense)
    assert svd.sigma[0] == pytest.approx(PHI, rel=1e-14)
    assert svd.sigma[1] == pytest.approx(PHI - 1.0, rel=1e-14)
    assert_svd_of(dense, svd)


def test_jacobi_rank_one_completes_u():
    dense = np.outer([3.0, 0.0, 0.0, 4.0], [0.0, 1.0, 0.0, 0.0])
    svd = jacobi_svd(dense)
    assert svd.sigma[0] == pytest.approx(5.0, rel=1e-14)
    assert np.allclose(svd.sigma[1:], 0.0, atol=1e-13)
    assert_svd_of(dense, svd)


def test_jacobi_scale_covariance():
    rng = make_rng(31)
    dense = standard_gaussian(rng, 36).reshape(6, 6)
    base = jacobi_svd(dense)
    scaled = jacobi_svd(1e6 * dense)
    assert np.allclose(scaled.sigma, 1e6 * base.sigma, rtol=1e-12, atol=0.0)


def test_jacobi_matches_closed_form_on_permutation_instance():
    m = sample_instance(InstanceDistribution(7, q_mode="permutation"), (13, 0))
    spec = spectrum(m)
    svd = jacobi_svd(materialize(m))
    scale = max(1.0, spec.sigma_max)
    assert abs(svd.sigma[0] - spec.sigma_max) <= 1e-8 * scale
    assert abs(svd.sigma[-1] - spec.sigma_min) <= 1e-8 * scale


def test_jacobi_raises_without_convergence_budget():
    rng = make_rng(97)
    dense = standard_gaussian(rng, 256).reshape(16, 16)
    with pytest.raises(NoConvergenceError):
        jacobi_svd(dense, JacobiConfig(max_sweeps=1))


def test_jacobi_config_validation():
    with pytest.raises(ValueError):
        JacobiConfig(sweep_tol=0.0)
    with pytest.raises(ValueError):
        JacobiConfig(max_sweeps=0)


def test_make_rng_accepts_tuples_and_is_deterministic():
    a = make_rng((5, 7)).random(4)
    b = make_rng((5, 7)).random(4)
    assert np.array_equal(a, b)
    c = make_rng((5, 8)).random(4)
    assert not np.array_equal(a, c)


def test_standard_gaussian_deterministic_and_finite():
    z1 = standard_gaussian(make_rng(3), 9)
    z2 = standard_gaussian(make_rng(3), 9)
    assert z1.shape == (9,)
    assert np.array_equal(z1, z2)
    assert np.isfinite(z1).all()


def test_standard_gaussian_is_textbook_box_muller_bit_for_bit():
    # the in-place evaluation must not change a single sampled bit
    for count in (1, 8, 9, 1001):
        rng = make_rng((17, count))
        half = (count + 1) // 2
        u1 = 1.0 - rng.random(half)
        u2 = rng.random(half)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * math.pi) * u2
        want = np.empty(2 * half)
        want[0::2] = radius * np.cos(angle)
        want[1::2] = radius * np.sin(angle)
        got = standard_gaussian(make_rng((17, count)), count)
        assert np.array_equal(got.view(np.int64), want[:count].view(np.int64))


def test_standard_gaussian_moments():
    z = standard_gaussian(make_rng(123), 200_000)
    assert abs(float(z.mean())) <= 0.01
    assert abs(float(z.var()) - 1.0) <= 0.02


def test_random_orthogonal_is_orthogonal_and_deterministic():
    q1 = random_orthogonal(8, 21)
    q2 = random_orthogonal(8, 21)
    assert np.array_equal(q1.matrix, q2.matrix)
    assert q1.defect <= 1e-13


def test_random_orthogonal_covers_both_determinant_signs():
    dets = {round(float(np.linalg.det(random_orthogonal(3, s).matrix))) for s in range(12)}
    assert dets == {-1, 1}


def test_random_orthogonal_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        random_orthogonal(0, 1)


def test_haar_orthogonal_shares_rng_stream():
    # consuming the generator twice must give two different draws
    rng = make_rng(6)
    first = haar_orthogonal(rng, 4)
    second = haar_orthogonal(rng, 4)
    assert not np.array_equal(first, second)
    assert orthogonality_defect(first) <= 1e-13


def test_instance_distribution_validation():
    with pytest.raises(ValueError):
        InstanceDistribution(1)
    with pytest.raises(ValueError):
        InstanceDistribution(4, q_mode="fourier")
    with pytest.raises(ValueError):
        InstanceDistribution(4, vector_mode="sparse")
    with pytest.raises(ValueError):
        InstanceDistribution(4, epsilon=-1e-3)
    with pytest.raises(ValueError):
        InstanceDistribution(4, scale_range=(1.0, 0.5))


def test_sample_instance_deterministic_per_seed():
    dist = InstanceDistribution(5)
    m1 = sample_instance(dist, (9, 4))
    m2 = sample_instance(dist, (9, 4))
    assert np.array_equal(m1.a, m2.a)
    assert np.array_equal(m1.b, m2.b)
    assert np.array_equal(m1.q.matrix, m2.q.matrix)


def test_sample_instance_identity_mode_has_no_q():
    assert sample_instance(InstanceDistribution(4, q_mode="identity"), 0).q is None


def test_sample_instance_permutation_mode():
    m = sample_instance(InstanceDistribution(5, q_mode="permutation"), 44)
    q = m.q.matrix
    assert np.array_equal(np.sort(q.ravel()), np.concatenate([np.zeros(20), np.ones(5)]))
    assert orthogonality_defect(q) == 0.0


def test_sample_instance_respects_scale_range():
    dist = InstanceDistribution(3, scale_range=(0.5, 2.0))
    for index in range(10):
        m = sample_instance(dist, (70, index))
        for vec in (m.a, m.b):
            norm = float(np.linalg.norm(vec))
            assert 0.5 * (1.0 - 1e-12) <= norm <= 2.0 * (1.0 + 1e-12)


def test_sample_instance_parallel_mode_hits_parallel_branch():
    dist = InstanceDistribution(6, vector_mode="parallel_pair")
    for index in range(5):
        m = sample_instance(dist, (30, index))
        assert spectrum(m).branch == "parallel"


def test_sample_instance_singular_mode_zeroes_one_plus_gamma():
    dist = InstanceDistribution(6, vector_mode="singular_pair")
    for index in range(5):
        m = sample_instance(dist, (31, index))
        scal = invariant_scalars(m)
        assert abs(1.0 + scal.gamma) <= 1e-12
        assert spectrum(m).sigma_min <= 1e-10


def test_sample_instance_near_parallel_is_barely_tilted():
    dist = InstanceDistribution(5, vector_mode="near_parallel", epsilon=1e-5)
    m = sample_instance(dist, 8)
    qta = m.q_transpose_a()
    x = qta / np.linalg.norm(qta)
    b_hat = m.b / np.linalg.norm(m.b)
    overlap = abs(float(x @ b_hat))
    assert overlap == pytest.approx(math.sqrt(1.0 - 1e-10), abs=1e-9)
    assert spectrum(m).branch == "non_parallel"


def test_sample_instance_zero_mode_drops_a():
    m = sample_instance(InstanceDistribution(4, vector_mode="zero"), 2)
    assert float(np.linalg.norm(m.a)) == 0.0
    assert float(np.linalg.norm(m.b)) > 0.0
    assert spectrum(m).branch == "zero_vector"
