"""Closed-form spectrum and SVD: scalar formulas, branches, vector assembly."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthorank1.closed_form import (
    BRANCH_NON_PARALLEL,
    BRANCH_PARALLEL,
    BRANCH_ZERO_VECTOR,
    _complement_basis,
    full_svd,
    lemma1_gap,
    mixing_coefficients,
    normalize_pair,
    rank_revelation_residual,
    special_eigenpairs,
    special_eigenvalues,
    spectrum,
    theorem_residual,
)
from orthorank1.core import (
    DomainError,
    NotUnitError,
    OrthogonalPlusRankOne,
    ZeroVectorError,
    identity_plus_outer,
    invariant_scalars,
    materialize,
    orthogonality_defect,
    orthonormality_defects,
    reconstruction_error,
)
from orthorank1.oracle import (
    InstanceDistribution,
    make_rng,
    random_orthogonal,
    sample_instance,
    standard_gaussian,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def char_poly(lam: float, c: float, t: float) -> float:
    # characteristic polynomial of B^T B restricted to span{x, y}
    return lam * lam - (2.0 + 2.0 * c + t * t) * lam + (1.0 + c) ** 2


def assert_valid_svd(m, svd, tol=1e-12):
    dense = materialize(m)
    scale = max(1.0, float(np.linalg.norm(dense)))
    assert reconstruction_error(m, svd) <= tol * scale
    du, dv = orthonormality_defects(svd)
    assert max(du, dv) <= tol
    assert np.all(np.diff(svd.sigma) <= tol * max(1.0, float(svd.sigma[0])))


def test_normalize_pair_scales_into_identity_frame():
    m = identity_plus_outer([2.0, 0.0, 0.0], [0.0, 3.0, 0.0])
    pair = normalize_pair(invariant_scalars(m), m.a, m.b, m.q_transpose_a())
    assert np.allclose(pair.x, [1.0, 0.0, 0.0])
    assert np.allclose(pair.y, [0.0, 6.0, 0.0])
    assert pair.c == 0.0
    assert pair.t == 6.0


def test_normalize_pair_rejects_zero_vectors():
    scal = invariant_scalars(identity_plus_outer([0.0, 0.0], [1.0, 0.0]))
    with pytest.raises(ZeroVectorError):
        normalize_pair(scal, [0.0, 0.0], [1.0, 0.0], [0.0, 0.0])


def test_special_eigenvalues_orthogonal_unit_case():
    # c = 0, t = 1 gives the golden ratio spectrum
    lam1, lam2 = special_eigenvalues(0.0, 1.0)
    assert lam1 == pytest.approx(PHI**2, rel=1e-15)
    assert lam2 == pytest.approx(PHI**-2, rel=1e-15)


def test_special_eigenvalues_satisfy_characteristic_polynomial():
    for c, t in [(0.0, 1.0), (0.5, 2.0), (-1.0, 1.0), (-3.0, 4.0), (2.0, 2.0), (0.0, 1e-8)]:
        lam1, lam2 = special_eigenvalues(c, t)
        scale = max(1.0, lam1 * lam1)
        assert abs(char_poly(lam1, c, t)) <= 1e-12 * scale
        assert abs(char_poly(lam2, c, t)) <= 1e-12 * scale


def test_special_eigenvalues_domain_checks():
    with pytest.raises(DomainError):
        special_eigenvalues(2.0, 1.0)
    with pytest.raises(DomainError):
        special_eigenvalues(0.0, -1.0)
    with pytest.raises(DomainError):
        special_eigenvalues(float("nan"), 1.0)


@given(
    t=st.floats(min_value=1e-6, max_value=1e3),
    ratio=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_eigenvalue_pair_properties(t, ratio):
    c = ratio * t
    lam1, lam2 = special_eigenvalues(c, t)
    assert lam1 >= lam2 >= 0.0
    # the plane eigenvalues straddle the unit eigenvalue of the complement
    assert lam2 <= 1.0 + 1e-12 <= lam1 + 1e-12
    scale = max(1.0, lam1)
    assert lam1 * lam2 == pytest.approx((1.0 + c) ** 2, rel=1e-12, abs=1e-12 * scale)
    assert lam1 + lam2 == pytest.approx(2.0 + 2.0 * c + t * t, rel=1e-12, abs=1e-12 * scale)


@given(
    t=st.floats(min_value=1e-6, max_value=1e3),
    ratio=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_mixing_reproduces_eigenvalues(t, ratio):
    c = ratio * t
    lam1, lam2 = special_eigenvalues(c, t)
    s_plus, s_minus = mixing_coefficients(c, t)
    assert s_plus > 0.0
    scale = max(1.0, lam1)
    assert abs(1.0 + c + s_plus * t * t - lam1) <= 1e-11 * scale
    assert abs(1.0 + c + s_minus * t * t - lam2) <= 1e-9 * scale


def test_mixing_coefficients_unit_case():
    # c = t = 1: discriminant 9, explicit root 2, Vieta partner -1
    s_plus, s_minus = mixing_coefficients(1.0, 1.0)
    assert s_plus == pytest.approx(2.0, rel=1e-15)
    assert s_minus == pytest.approx(-1.0, rel=1e-15)
    lam1, lam2 = special_eigenvalues(1.0, 1.0)
    assert lam1 == pytest.approx(1.0 + 1.0 + s_plus, rel=1e-15)
    assert lam2 == pytest.approx(1.0 + 1.0 + s_minus, rel=1e-15)


def test_mixing_coefficients_need_positive_t():
    with pytest.raises(DomainError):
        mixing_coefficients(0.0, 0.0)


def test_spectrum_shear_gives_golden_ratio():
    m = identity_plus_outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    spec = spectrum(m)
    assert spec.branch == BRANCH_NON_PARALLEL
    assert spec.sigma_max == pytest.approx(PHI, rel=1e-15)
    assert spec.sigma_min == pytest.approx(PHI - 1.0, rel=1e-15)
    assert spec.unit_multiplicity == 1
    assert spec.sign_term == 1


def test_spectrum_parallel_stretch():
    # I + 2 e1 e1^T = diag(3, 1, 1, 1)
    m = identity_plus_outer([1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0])
    spec = spectrum(m)
    assert spec.branch == BRANCH_PARALLEL
    assert spec.sigma_max == 3.0
    assert spec.sigma_min == 1.0
    assert spec.unit_multiplicity == 3


def test_spectrum_projector_hits_zero():
    # I - e1 e1^T: singular values {1, 1, 0}; 1 + gamma = 0 keeps sign +1
    m = identity_plus_outer([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    spec = spectrum(m)
    assert spec.branch == BRANCH_PARALLEL
    assert (spec.sigma_max, spec.sigma_min) == (1.0, 0.0)
    assert spec.sign_term == 1
    assert spec.unit_multiplicity == 2


def test_spectrum_negative_sign_term():
    m = identity_plus_outer([1.0, 0.0], [-3.0, 0.0])  # diag(-2, 1)
    spec = spectrum(m)
    assert spec.sign_term == -1
    assert spec.sigma_max == 2.0
    assert spec.sigma_min == 1.0
    assert spec.unit_multiplicity == 1


def test_spectrum_zero_update_reports_orthogonal():
    m = identity_plus_outer([0.0, 0.0], [1.0, 1.0])
    spec = spectrum(m)
    assert spec.branch == BRANCH_ZERO_VECTOR
    assert (spec.sigma_max, spec.sigma_min) == (1.0, 1.0)
    assert spec.unit_multiplicity == 2


def test_spectrum_one_dimensional_multiset():
    m = identity_plus_outer([2.0], [3.0])  # A = [7]
    spec = spectrum(m)
    assert spec.branch == BRANCH_PARALLEL
    assert spec.sigma_max == spec.sigma_min == 7.0
    assert spec.unit_multiplicity == 0


def test_spectrum_scale_covariance():
    # only the product alpha * beta matters: moving a factor k between the
    # vectors must leave both extreme singular values unchanged
    for index, k in enumerate([0.25, 7.5, 3.0e4]):
        m = sample_instance(InstanceDistribution(5), (131, index))
        bumped_a = spectrum(OrthogonalPlusRankOne(m.q, k * m.a, m.b))
        bumped_b = spectrum(OrthogonalPlusRankOne(m.q, m.a, k * m.b))
        assert bumped_a.sigma_max == pytest.approx(bumped_b.sigma_max, rel=1e-13)
        assert bumped_a.sigma_min == pytest.approx(
            bumped_b.sigma_min, rel=1e-13, abs=1e-13
        )
        assert bumped_a.sign_term == bumped_b.sign_term
        assert bumped_a.branch == bumped_b.branch


def test_theorem_residual_exact_for_axis_case():
    # diag(-2, 1): 2 - (-1) * 1 = 3 = |a| |b| exactly
    assert theorem_residual(identity_plus_outer([1.0, 0.0], [-3.0, 0.0])) == 0.0


def test_theorem_residual_shear():
    m = identity_plus_outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert theorem_residual(m) <= 1e-12


def test_theorem_residual_small_across_seeded_instances():
    for index, dim in enumerate([2, 3, 5, 8, 13]):
        m = sample_instance(InstanceDistribution(dim), (101, index))
        scal = invariant_scalars(m)
        assert theorem_residual(m) <= 1e-12 * max(1.0, scal.alpha * scal.beta)


def test_special_eigenpairs_empty_for_zero_update():
    assert special_eigenpairs(identity_plus_outer([0.0, 0.0], [1.0, 0.0])) == ()


def test_special_eigenpairs_parallel_single():
    m = identity_plus_outer([1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0])
    pairs = special_eigenpairs(m)
    assert len(pairs) == 1
    assert pairs[0].eigenvalue == 9.0
    assert pairs[0].mixing == 0.0
    assert np.allclose(pairs[0].vector, [1.0, 0.0, 0.0, 0.0])


def test_special_eigenpairs_diagonalize_gram_matrix():
    m = identity_plus_outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    pairs = special_eigenpairs(m)
    assert len(pairs) == 2
    gram = materialize(m).T @ materialize(m)
    for pair in pairs:
        resid = gram @ pair.vector - pair.eigenvalue * pair.vector
        assert float(np.linalg.norm(resid)) <= 1e-12
        assert abs(float(np.linalg.norm(pair.vector)) - 1.0) <= 1e-12
    assert abs(float(pairs[0].vector @ pairs[1].vector)) <= 1e-12
    assert pairs[0].eigenvalue == pytest.approx(PHI**2, rel=1e-14)
    assert pairs[1].eigenvalue == pytest.approx(PHI**-2, rel=1e-14)


def test_full_svd_shear():
    m = identity_plus_outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    svd = full_svd(m)
    assert_valid_svd(m, svd)
    assert svd.sigma[0] == pytest.approx(PHI, rel=1e-14)
    assert svd.sigma[1] == 1.0
    assert svd.sigma[2] == pytest.approx(PHI - 1.0, rel=1e-14)


def test_full_svd_zero_update_returns_q():
    q = random_orthogonal(4, 9)
    m = OrthogonalPlusRankOne(q, np.zeros(4), np.ones(4))
    svd = full_svd(m)
    assert np.array_equal(svd.u, q.matrix)
    assert np.array_equal(svd.sigma, np.ones(4))
    assert np.array_equal(svd.v, np.eye(4))


def test_full_svd_projector_null_vector():
    # the singular direction of I - e1 e1^T is annihilated exactly
    m = identity_plus_outer([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    svd = full_svd(m)
    assert svd.sigma[-1] == 0.0
    assert float(np.linalg.norm(materialize(m) @ svd.v[:, -1])) <= 1e-12
    assert_valid_svd(m, svd)


def test_full_svd_parallel_shrink_orders_unit_block_first():
    # I - 0.5 e1 e1^T = diag(0.5, 1, 1): the unit singular values lead
    m = identity_plus_outer([1.0, 0.0, 0.0], [-0.5, 0.0, 0.0])
    svd = full_svd(m)
    assert svd.sigma.tolist() == [1.0, 1.0, 0.5]
    assert_valid_svd(m, svd)


def test_full_svd_keeps_orthonormality_near_singularity():
    # sigma_min near 1e-9 is where dividing A v by sigma would lose half the
    # digits; the rotated construction must not care
    m = identity_plus_outer([1.0, 0.0, 0.0], [-1.0 + 1e-9, 0.5, 0.0])
    svd = full_svd(m)
    assert 1e-10 <= svd.sigma[-1] <= 1e-8
    du, dv = orthonormality_defects(svd)
    assert max(du, dv) <= 1e-12
    assert_valid_svd(m, svd)


def test_full_svd_singular_instance_exposes_null_direction():
    m = sample_instance(InstanceDistribution(5, vector_mode="singular_pair"), (77, 0))
    svd = full_svd(m)
    assert svd.sigma[-1] <= 1e-10
    dense = materialize(m)
    scale = max(1.0, float(np.linalg.norm(dense)))
    assert float(np.linalg.norm(dense @ svd.v[:, -1])) <= 1e-9 * scale
    assert_valid_svd(m, svd, tol=1e-9)


def test_full_svd_seeded_instances_across_modes():
    modes = ["gaussian", "parallel_pair", "near_parallel", "singular_pair", "zero"]
    for index, mode in enumerate(modes):
        m = sample_instance(InstanceDistribution(6, vector_mode=mode), (55, index))
        assert_valid_svd(m, full_svd(m), tol=1e-9)


def test_full_svd_two_dimensional_has_no_unit_block():
    m = sample_instance(InstanceDistribution(2), (61, 0))
    svd = full_svd(m)
    assert svd.sigma.shape == (2,)
    assert_valid_svd(m, svd, tol=1e-9)


def test_complement_basis_skips_dependent_seed():
    # anchor nearly equals e1, so the e1 seed must be skipped, not normalized
    anchor = np.array([1.0, 1e-9, 0.0])
    anchor /= np.linalg.norm(anchor)
    basis = _complement_basis(anchor[:, None], 2)
    joined = np.column_stack((anchor[:, None], basis))
    assert orthogonality_defect(joined) <= 1e-12


def test_complement_basis_two_anchors():
    # both anchors sit almost inside span{e1, e2}
    anchors = np.linalg.qr(
        np.array([[1.0, 0.0], [1e-9, 1.0], [0.0, 1e-10], [0.0, 0.0], [0.0, 0.0]])
    )[0]
    basis = _complement_basis(anchors, 3)
    assert basis.shape == (5, 3)
    joined = np.column_stack((anchors, basis))
    assert orthogonality_defect(joined) <= 1e-12


def test_complement_basis_is_the_complete_householder_factor():
    # the compact WY block equals the trailing columns of LAPACK's complete Q,
    # and writes into a strided view of a larger matrix without copying
    rng = make_rng(71)
    for k in (1, 2):
        anchors = np.linalg.qr(standard_gaussian(rng, 7 * k).reshape(7, k))[0]
        full_q = np.linalg.qr(anchors, mode="complete")[0]
        host = np.zeros((7, 9))
        view = host[:, 1 : 8 - k]
        assert _complement_basis(anchors, 7 - k, out=view) is view
        assert np.abs(view - full_q[:, k:]).max() <= 1e-14
        assert np.abs(_complement_basis(anchors, 7 - k) - view).max() == 0.0
        assert not host[:, 0].any() and not host[:, 8 - k :].any()


def test_full_svd_allocates_only_u_and_v():
    # the n x n memory of one call is its two outputs: no complete Q, no copy
    # of U before the product with Q
    n = 256
    for mode in ("gaussian", "parallel_pair"):
        m = sample_instance(InstanceDistribution(n, vector_mode=mode), (89, 0))
        tracemalloc.start()
        try:
            svd = full_svd(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert svd.u.shape == svd.v.shape == (n, n)
        assert peak <= 2.5 * n * n * 8  # a third n x n array would make it 3


def test_full_svd_unit_columns_of_u_are_q_times_v():
    # B = I + x y^T is the identity off span{x, y}: U's unit block is Q V's,
    # free of the eps |a| |b| roundoff that applying B to it would add
    for index, mode in enumerate(["gaussian", "parallel_pair", "near_parallel"]):
        dist = InstanceDistribution(8, vector_mode=mode, scale_range=(1e2, 1e3))
        m = sample_instance(dist, (83, index))
        svd = full_svd(m)
        units = np.flatnonzero(svd.sigma == 1.0)
        assert units.size == spectrum(m).unit_multiplicity
        assert np.abs(svd.u[:, units] - m.q.matrix @ svd.v[:, units]).max() <= 1e-14


def test_instance_ignores_later_writes_to_caller_arrays():
    q = random_orthogonal(4, 6)
    a = np.array([1.0, -2.0, 0.5, 3.0])
    b = np.array([0.25, 1.0, -1.0, 2.0])
    m = OrthogonalPlusRankOne(q, a, b)
    before = spectrum(m)
    a[:] = 0.0
    b *= 10.0
    assert m.a.tolist() == [1.0, -2.0, 0.5, 3.0]
    assert m.b.tolist() == [0.25, 1.0, -1.0, 2.0]
    assert spectrum(m) == before


def test_lemma1_gap_boundary_cases_vanish():
    e1 = [1.0, 0.0]
    assert lemma1_gap(e1, [0.0, 0.0]) == (0.0, 0.0)
    assert lemma1_gap(e1, [-2.0, 0.0]) == (0.0, 0.0)


def test_lemma1_gap_orthogonal_unit():
    upper, lower = lemma1_gap([1.0, 0.0], [0.0, 1.0])
    assert upper == pytest.approx(1.0 + math.sqrt(5.0), rel=1e-15)
    assert lower == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-15)


def test_lemma1_gap_requires_unit_x():
    with pytest.raises(NotUnitError):
        lemma1_gap([2.0, 0.0], [0.0, 1.0])


def test_lemma1_gap_tight_case_survives_large_scale():
    # y parallel to x saturates one inequality; naive evaluation loses
    # ~eps * |y|^2 to cancellation, the product form must not
    for mu in (9.5e5, -9.5e5, 1e4):
        upper, lower = lemma1_gap([1.0], [mu])
        assert upper >= 0.0
        assert lower >= -1e-12


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=1e-6, max_value=1e6),
    dim=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=80, deadline=None)
def test_lemma1_slacks_nonnegative(seed, scale, dim):
    rng = make_rng(seed)
    x = standard_gaussian(rng, dim)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        x = np.zeros(dim)
        x[0] = 1.0
    else:
        x = x / nx
    y = standard_gaussian(rng, dim)
    ny = float(np.linalg.norm(y))
    y = y * (scale / ny) if ny > 0.0 else np.zeros(dim)
    upper, lower = lemma1_gap(x, y)
    assert upper >= -1e-12
    assert lower >= -1e-12


def test_rank_revelation_exact_for_shear():
    m = identity_plus_outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert rank_revelation_residual(m) == 0.0


def test_rank_revelation_requires_identity_variant():
    q = random_orthogonal(3, 5)
    m = OrthogonalPlusRankOne(q, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        rank_revelation_residual(m)


def test_rank_revelation_rejects_zero_b():
    with pytest.raises(ZeroVectorError):
        rank_revelation_residual(identity_plus_outer([1.0, 0.0], [0.0, 0.0]))


def test_rank_revelation_small_on_seeded_instances():
    dist = InstanceDistribution(8, q_mode="identity")
    for index in range(5):
        m = sample_instance(dist, (59, index))
        pair = normalize_pair(invariant_scalars(m), m.a, m.b, m.a)
        assert rank_revelation_residual(m) <= 1e-10 * max(1.0, pair.t**2)
