import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpod import Basis, Metric, SnapshotSet, orthonormalize, pod, project
from mfpod.core import validate_levels
from mfpod.mfpod import _lift
from mfpod.models import mass_matrix

from conftest import banded_metric, leading, mgs_orthonormalize, random_spd_metric


def test_euclidean_inner_is_exact_dot():
    m = Metric.euclidean(4)
    e1 = np.array([1.0, 0, 0, 0])
    assert m.inner(e1, e1) == 1.0
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    assert m.inner(u, v) == np.dot(u, v)


def test_weighted_inner_symmetry():
    rng = np.random.default_rng(1)
    m = random_spd_metric(rng, 9)
    u, v = rng.standard_normal(9), rng.standard_normal(9)
    assert m.inner(u, v) == pytest.approx(m.inner(v, u), rel=1e-12)


def test_mass_matrix_integral_of_one_minus_x():
    # nodal samples of 1-x on a uniform mesh; exact quadrature gives 1/3
    n = 101
    x = np.linspace(0.0, 1.0, n)
    m = Metric.from_weight(mass_matrix(n))
    assert m.inner(1.0 - x, 1.0 - x) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_metric_rejects_asymmetric_and_indefinite():
    a = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        Metric.from_weight(a)
    with pytest.raises(ValueError):
        Metric.from_weight(np.diag([1.0, -1.0]))


def test_factor_property_and_coordinate_roundtrip():
    rng = np.random.default_rng(2)
    m = random_spd_metric(rng, 12)
    # to_coords applies F^T, so its image of the identity is F^T itself
    f = m.to_coords(np.eye(12)).T
    w = np.asarray(m.weight)
    np.testing.assert_allclose(f @ f.T, w, rtol=0, atol=1e-12 * np.abs(w).max())
    x = rng.standard_normal((12, 5))
    np.testing.assert_allclose(m.from_coords(m.to_coords(x)), x, atol=1e-12)
    # transformed coordinates make the weighted product euclidean
    y = m.to_coords(x)
    np.testing.assert_allclose(y.T @ y, x.T @ m.apply(x), atol=1e-10)


def test_banded_and_dense_weight_paths_agree():
    n = 40
    w_sparse = mass_matrix(n)
    w_dense = np.asarray(w_sparse.todense())
    mb = Metric.from_weight(w_sparse)
    md = Metric.from_weight(w_dense)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, 4))
    np.testing.assert_allclose(mb.to_coords(x), md.to_coords(x), atol=1e-13)
    np.testing.assert_allclose(mb.from_coords(x), md.from_coords(x), atol=1e-9)
    np.testing.assert_allclose(mb.norms_sq(x), md.norms_sq(x), rtol=1e-12)


def test_wide_sparse_and_dense_weights_factor_through_banded_route():
    n = 30
    rng = np.random.default_rng(4)
    a = rng.standard_normal((n, n)) * 0.05
    dense = a @ a.T + np.eye(n)
    x = rng.standard_normal(n)
    for weight in (scipy.sparse.csr_matrix(dense), dense):
        m = Metric.from_weight(weight)
        assert m._ft_bands.shape == (n, n)  # full bandwidth n - 1
        f = m.to_coords(np.eye(n)).T
        np.testing.assert_allclose(f @ f.T, dense, rtol=0, atol=1e-12 * np.abs(dense).max())
        np.testing.assert_allclose(m.from_coords(m.to_coords(x)), x, atol=1e-12)


def test_project_empty_full_and_pythagoras():
    rng = np.random.default_rng(5)
    m = random_spd_metric(rng, 8)
    u = rng.standard_normal(8)
    empty = Basis(np.zeros((8, 0)), m)
    np.testing.assert_array_equal(project(empty, u), np.zeros(8))
    full = orthonormalize(rng.standard_normal((8, 8)), m)
    assert full.dim == 8
    np.testing.assert_allclose(project(full, u), u, atol=1e-10)
    part = Basis(full.vectors[:, :3], m)
    pu = project(part, u)
    assert m.norm(u) ** 2 == pytest.approx(m.norm(pu) ** 2 + m.norm(u - pu) ** 2, rel=1e-10)


def test_orthonormalize_identity_columns_unchanged():
    b = orthonormalize(np.eye(5)[:, :3], Metric.euclidean(5))
    np.testing.assert_array_equal(b.vectors, np.eye(5)[:, :3])


def test_orthonormalize_drops_dependent_columns():
    rng = np.random.default_rng(6)
    u = rng.standard_normal(10)
    b = orthonormalize(np.column_stack([u, 2 * u]), Metric.euclidean(10))
    assert b.dim == 1


def test_orthonormalize_random_satisfies_basis_invariant():
    rng = np.random.default_rng(7)
    m = random_spd_metric(rng, 100)
    b = orthonormalize(rng.standard_normal((100, 10)), m)
    assert b.dim == 10
    assert b.orthonormality_defect() < 1e-10


@pytest.mark.parametrize("weighted", [False, True])
def test_orthonormalize_graded_input_stays_orthonormal_and_spans_every_column(weighted):
    # singular values fall from 1 to 1e-14, so the trailing columns are
    # nearly dependent and the first Gram-Schmidt pass cancels heavily
    rng = np.random.default_rng(8)
    n, k = 300, 40
    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    a = (u * np.logspace(0, -14, k)) @ v.T
    metric = Metric.from_weight(mass_matrix(n)) if weighted else Metric.euclidean(n)
    basis = orthonormalize(a, metric)
    assert basis.orthonormality_defect() <= 1e-9
    resid = np.sqrt(metric.norms_sq(a - project(basis, a)))
    assert resid.max() <= 4 * 1e-12 * np.sqrt(metric.norms_sq(a).max())


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(5, 300), k=st.integers(1, 60), floor=st.floats(0.0, 16.0),
       exponent=st.floats(-6.0, 6.0), bandwidth=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_orthonormalize_keeps_the_numerical_rank_of_graded_input(n, k, floor, exponent,
                                                                 bandwidth, seed):
    # singular values fall from 1 to 10^-floor; the QR basis is orthonormal,
    # holds every column within the bound of the graded test above, and keeps
    # no more directions than the Gram-Schmidt oracle.  The oracle runs at half
    # the tolerance: a residual within roundoff of the rule can fall on either
    # side of it, depending on the order in which columns are eliminated.
    rng = np.random.default_rng(seed)
    rank = min(n, k)
    u, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((k, rank)))
    a = 10.0 ** exponent * (u * np.logspace(0, -floor, rank)) @ v.T
    metric = banded_metric(rng, n, bandwidth) if bandwidth else Metric.euclidean(n)
    basis = orthonormalize(a, metric)
    assert basis.orthonormality_defect() <= 1e-12
    resid = np.sqrt(metric.norms_sq(a - project(basis, a)))
    assert resid.max() <= 4 * 1e-12 * np.sqrt(metric.norms_sq(a).max())
    assert basis.dim <= mgs_orthonormalize(a, metric, 0.5e-12).dim


def test_basis_defect_and_check():
    m = Metric.euclidean(4)
    good = Basis(np.eye(4)[:, :2], m)
    good.check()
    bad = Basis(np.eye(4)[:, :2] * 1.5, m)
    assert bad.orthonormality_defect() > 1.0
    with pytest.raises(ValueError):
        bad.check()
    assert leading(good, 1).check().dim == 1


def _sets(n=6, m0=2, m1=5):
    rng = np.random.default_rng(8)
    hf = rng.standard_normal((n, m0))
    lf = rng.standard_normal((n, m1))
    ids = tuple(range(m1))
    return (
        SnapshotSet(0, hf, np.zeros((n, 0)), ids[:m0], 1.0),
        SnapshotSet(1, lf[:, :m0], lf[:, m0:], ids, 0.25),
    )


def test_snapshot_set_validation():
    sets = _sets()
    validate_levels(sets)
    n = sets[0].dim
    with pytest.raises(ValueError):
        SnapshotSet(0, sets[0].shared, np.ones((n, 1)), (0, 1, 2), 1.0)  # level 0 has no extra
    with pytest.raises(ValueError):
        SnapshotSet(1, sets[0].shared, sets[1].extra, (0, 0, 1, 2, 3), 0.25)  # dup ids
    with pytest.raises(ValueError):
        SnapshotSet(0, sets[0].shared * np.nan, np.zeros((n, 0)), (0, 1), 1.0)


def test_validate_levels_rejects_sharing_violations():
    s0, s1 = _sets()
    # shuffled ids break the prefix-sharing contract
    bad_ids = tuple(reversed(s1.sample_ids))
    bad = SnapshotSet(1, s1.shared, s1.extra, bad_ids, s1.cost_per_sample)
    with pytest.raises(ValueError):
        validate_levels((s0, bad))
    # costs must strictly decrease from level 0
    pricey = SnapshotSet(1, s1.shared, s1.extra, s1.sample_ids, 2.0)
    with pytest.raises(ValueError):
        validate_levels((s0, pricey))
    # counts must strictly increase
    with pytest.raises(ValueError):
        validate_levels((s1, s1))


def test_validate_levels_rejects_an_empty_high_fidelity_level():
    # an empty level 0 would reach the operator's 1/m_0 weight
    s0, s1 = _sets(m0=0)
    with pytest.raises(ValueError, match="level 0"):
        validate_levels((s0, s1))
    with pytest.raises(ValueError, match="level 0"):
        validate_levels((s0,))
    with pytest.raises(ValueError, match="level 0"):
        pod(np.zeros((6, 0)), Metric.euclidean(6))


def test_from_columns_constructor():
    rng = np.random.default_rng(9)
    cols = rng.standard_normal((5, 4))
    s = SnapshotSet(1, cols[:, :2], cols[:, 2:], (0, 1, 2, 3), 0.5)
    np.testing.assert_array_equal(s.columns, cols)
    assert s.shared.shape == (5, 2) and s.extra.shape == (5, 2)
    hf = rng.standard_normal((5, 2))
    s0, s1 = SnapshotSet.two_level(hf, cols, 1.0, 0.5)
    validate_levels((s0, s1))
    np.testing.assert_array_equal(s0.columns, hf)
    np.testing.assert_array_equal(s1.columns, cols)
    assert s1.shared.shape == (5, 2) and s1.sample_ids == (0, 1, 2, 3)


def test_lifted_snapshot_set_stands_for_its_lifted_columns():
    rng = np.random.default_rng(10)
    matrix, coeffs = rng.standard_normal((7, 3)), rng.standard_normal((3, 5))
    lift = _lift(matrix, Metric.euclidean(7))
    hf = rng.standard_normal((7, 2))
    s0, s1 = SnapshotSet.two_level(hf, coeffs, 1.0, 0.5, lift)
    validate_levels((s0, s1))
    assert s0.lift is None and s1.lift is lift
    assert (s1.dim, s1.count, s1.shared.shape) == (7, 5, (3, 2))
    np.testing.assert_array_equal(s1.columns, matrix @ coeffs)
    np.testing.assert_array_equal(s1.snapshots(s1.extra), matrix @ coeffs[:, 2:])
    with pytest.raises(ValueError, match="lift columns"):
        SnapshotSet(1, coeffs, np.zeros((3, 0)), range(5), 0.5,
                    _lift(matrix[:, :2], Metric.euclidean(7)))
