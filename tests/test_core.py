"""Validation layer: array coercion, orthogonality checks, invariant scalars."""

import math
import tracemalloc

import numpy as np
import pytest

from orthorank1.core import (
    FullSvd,
    NonFiniteEntryError,
    NotOrthogonalError,
    NotSquareError,
    OrthogonalPlusRankOne,
    as_matrix,
    as_vector,
    identity_plus_outer,
    invariant_scalars,
    materialize,
    orthogonality_defect,
    orthonormality_defects,
    reconstruction_error,
    validate_orthogonal,
)
from orthorank1.oracle import make_rng, random_orthogonal, standard_gaussian


def test_as_vector_coerces_to_float64():
    out = as_vector([1, 2, 3])
    assert out.dtype == np.float64
    assert out.tolist() == [1.0, 2.0, 3.0]


def test_as_vector_rejects_empty_and_2d():
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])


def test_as_vector_rejects_nan():
    with pytest.raises(NonFiniteEntryError):
        as_vector([1.0, float("nan")])


def test_as_matrix_rejects_rectangles():
    with pytest.raises(NotSquareError):
        as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_as_matrix_rejects_inf():
    with pytest.raises(NonFiniteEntryError):
        as_matrix([[1.0, 0.0], [0.0, float("inf")]])


def test_validate_orthogonal_accepts_rotation():
    th = 0.3
    rot = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    q = validate_orthogonal(rot)
    assert q.dim == 2
    assert q.defect <= 1e-15


def test_validate_orthogonal_shear_defect_is_one():
    # Q^T Q - I for [[1,1],[0,1]] has entries {0, 1, 1, 1}
    with pytest.raises(NotOrthogonalError) as err:
        validate_orthogonal([[1.0, 1.0], [0.0, 1.0]])
    assert err.value.defect == pytest.approx(1.0)
    assert err.value.tol == pytest.approx(1e-10)


def test_orthogonality_defect_identity_is_zero():
    assert orthogonality_defect(np.eye(4)) == 0.0


def test_orthogonality_defect_equals_the_direct_expression():
    q = random_orthogonal(6, 8).matrix + 1e-7 * standard_gaussian(make_rng(8), 36).reshape(6, 6)
    assert orthogonality_defect(q) == float(np.abs(q.T @ q - np.eye(6)).max())


def test_instance_rejects_length_mismatch():
    with pytest.raises(ValueError):
        OrthogonalPlusRankOne(None, np.ones(3), np.ones(4))


def test_instance_rejects_dim_mismatch_with_q():
    q = validate_orthogonal(np.eye(3))
    with pytest.raises(ValueError):
        OrthogonalPlusRankOne(q, np.ones(2), np.ones(2))


def test_instance_rejects_non_finite_vectors():
    with pytest.raises(NonFiniteEntryError):
        identity_plus_outer([1.0, float("inf")], [1.0, 0.0])


def test_q_transpose_a_identity_passthrough():
    m = identity_plus_outer([1.0, 2.0], [0.0, 1.0])
    assert np.array_equal(m.q_transpose_a(), m.a)


def test_q_transpose_a_applies_transpose():
    q = validate_orthogonal([[0.0, 1.0], [1.0, 0.0]])
    m = OrthogonalPlusRankOne(q, [1.0, 2.0], [1.0, 0.0])
    assert m.q_transpose_a().tolist() == [2.0, 1.0]


def test_instance_vectors_are_read_only():
    q = random_orthogonal(3, 2)
    m = OrthogonalPlusRankOne(q, [1.0, 2.0, 3.0], [0.5, 0.0, -1.0])
    for arr in (m.a, m.b, m.q_transpose_a()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # stored at construction, not recomputed per call
    assert m.q_transpose_a() is m.q_transpose_a()


def test_invariant_scalars_axis_case():
    m = identity_plus_outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    scal = invariant_scalars(m)
    assert (scal.alpha, scal.beta, scal.gamma) == (1.0, 1.0, 0.0)


def test_invariant_scalars_match_loop_oracle():
    # recompute alpha, beta, gamma with plain python loops
    q = random_orthogonal(5, 11)
    rng = make_rng(12)
    a = standard_gaussian(rng, 5)
    b = standard_gaussian(rng, 5)
    m = OrthogonalPlusRankOne(q, a, b)
    scal = invariant_scalars(m)
    alpha = math.sqrt(sum(float(v) ** 2 for v in a))
    beta = math.sqrt(sum(float(v) ** 2 for v in b))
    gamma = sum(
        float(a[i]) * float(q.matrix[i][j]) * float(b[j])
        for i in range(5)
        for j in range(5)
    )
    assert scal.alpha == pytest.approx(alpha, rel=1e-14)
    assert scal.beta == pytest.approx(beta, rel=1e-14)
    assert scal.gamma == pytest.approx(gamma, rel=1e-12, abs=1e-13)


def test_materialize_identity_update():
    m = identity_plus_outer([1.0, 0.0], [0.0, 2.0])
    assert np.array_equal(materialize(m), np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_materialize_and_defect_allocate_one_matrix():
    # each holds one n x n array at a time: no copy of Q, no outer temporary,
    # no identity matrix
    n = 256
    q = random_orthogonal(n, 5)
    m = OrthogonalPlusRankOne(q, np.ones(n), np.full(n, 0.5))
    for call in (lambda: materialize(m), lambda: orthogonality_defect(q.matrix)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8  # a second n x n array would make it 2


def test_materialize_adds_outer_to_q():
    q = random_orthogonal(4, 3)
    rng = make_rng(4)
    a = standard_gaussian(rng, 4)
    b = standard_gaussian(rng, 4)
    m = OrthogonalPlusRankOne(q, a, b)
    assert np.array_equal(materialize(m), q.matrix + np.outer(m.a, m.b))


def test_reconstruction_error_zero_for_exact_factorization():
    m = identity_plus_outer([1.0, 0.0], [1.0, 0.0])
    svd = FullSvd(np.eye(2), np.array([2.0, 1.0]), np.eye(2))
    assert reconstruction_error(m, svd) == 0.0


def test_orthonormality_defects_flag_skew():
    skew = FullSvd(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2), np.eye(2))
    du, dv = orthonormality_defects(skew)
    assert du == pytest.approx(1.0)
    assert dv == 0.0


def test_fullsvd_dim():
    assert FullSvd(np.eye(3), np.ones(3), np.eye(3)).dim == 3
