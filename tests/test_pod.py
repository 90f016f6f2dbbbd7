import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpod import (
    AdvDiffConfig,
    Allocation,
    Basis,
    Metric,
    SnapshotSet,
    j_mf,
    pod,
    sample_parameters,
    select_dim,
    snapshot,
    subspace_alignment,
)
from mfpod.models import fine_metric

from conftest import leading, mc_projection_error, random_spd_metric


def test_single_snapshot():
    rng = np.random.default_rng(0)
    m = random_spd_metric(rng, 7)
    u = rng.standard_normal(7)
    res = pod(u[:, None], m)
    assert res.eigvals[0] == pytest.approx(m.norm(u) ** 2, rel=1e-12)
    v = res.basis.vectors[:, 0]
    np.testing.assert_allclose(np.abs(v), np.abs(u / m.norm(u)), atol=1e-12)


def test_two_orthogonal_equal_norm_snapshots_match_dense_gramian():
    m = Metric.euclidean(4)
    u = np.array([2.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 2.0, 0.0, 0.0])
    s = np.column_stack([u, v])
    res = pod(s, m)
    gram = (s.T @ s) / 2.0
    oracle = np.sort(scipy.linalg.eigh(gram, eigvals_only=True))[::-1]
    np.testing.assert_allclose(res.eigvals, oracle, rtol=1e-12)
    np.testing.assert_allclose(res.eigvals, [2.0, 2.0])


def test_tail_identity_every_r():
    # the mean residual energy at rank r equals the eigenvalue tail sum
    rng = np.random.default_rng(1)
    m = random_spd_metric(rng, 50)
    s = rng.standard_normal((50, 20))
    res = pod(s, m)
    total = np.sum(res.eigvals)
    for r in range(res.basis.dim + 1):
        err = mc_projection_error(Basis(res.basis.vectors[:, :r], m), s)
        assert err == pytest.approx(res.eigvals[r:].sum(), rel=1e-9, abs=1e-9 * total)


def test_more_snapshots_than_dimensions():
    rng = np.random.default_rng(2)
    m = Metric.euclidean(6)
    s = rng.standard_normal((6, 15))
    res = pod(s, m)
    assert res.basis.dim <= 6
    assert len(res.eigvals) == 15
    np.testing.assert_allclose(res.eigvals[6:], 0.0, atol=1e-12 * res.eigvals[0])
    err = mc_projection_error(res.basis, s)
    assert err <= 1e-9 * res.eigvals[0]


def test_eigvals_descending_nonnegative_modes_unit_norm():
    rng = np.random.default_rng(3)
    m = random_spd_metric(rng, 30)
    res = pod(rng.standard_normal((30, 9)), m)
    assert (np.diff(res.eigvals) <= 1e-12 * res.eigvals[0]).all()
    assert (res.eigvals >= 0).all()
    for j in range(res.basis.dim):
        assert m.norm(res.basis.vectors[:, j]) == pytest.approx(1.0, abs=1e-9)


def test_rank_deficient_snapshots_truncated():
    rng = np.random.default_rng(4)
    u = rng.standard_normal(12)
    s = np.column_stack([u, u, 2 * u])
    res = pod(s, Metric.euclidean(12))
    assert res.basis.dim == 1


def test_projection_error_trivial_cases():
    # the library's projection error of plain snapshots is J_mf of one level
    def error(basis, s):
        level = SnapshotSet(0, s, np.zeros((len(s), 0)), range(s.shape[1]), 1.0)
        return j_mf(basis, (level,), Allocation((s.shape[1],), (), (1.0,)))

    rng = np.random.default_rng(5)
    m = random_spd_metric(rng, 10)
    s = rng.standard_normal((10, 4))
    res = pod(s, m)
    assert error(res.basis, s) <= 1e-10 * res.eigvals[0]
    empty = Basis(np.zeros((10, 0)), m)
    assert error(empty, s) == pytest.approx(m.norms_sq(s).mean(), rel=1e-12)
    with pytest.raises(ValueError):
        error(res.basis, np.zeros((10, 0)))


def test_eig_floor_controls_retained_modes():
    rng = np.random.default_rng(6)
    u = rng.standard_normal(20)
    # perturbation sized so lambda_2/lambda_1 ~ 3e-8 stays above the 1e-10 floor
    s = np.column_stack([u, u + 3e-4 * rng.standard_normal(20)])
    assert pod(s, Metric.euclidean(20)).basis.dim == 2


def test_eigvals_are_exact_zeros_past_the_retained_modes():
    rng = np.random.default_rng(8)
    u = rng.standard_normal((20, 3))
    res = pod(u @ rng.standard_normal((3, 11)), Metric.euclidean(20))
    assert res.basis.dim == 3 and len(res.eigvals) == 11
    assert (res.eigvals[:3] > 0).all() and (res.eigvals[3:] == 0.0).all()


# -- invariance to snapshot scale and order, on the n = 129 model ---------------

_MODEL = AdvDiffConfig(n_hf=129, n_lf=17)
# 300 snapshots: two Gram-Schmidt blocks of the span
_THETAS = sample_parameters(300, 21, _MODEL.theta_range)
_SNAPSHOTS = np.column_stack([snapshot(t, "high", _MODEL) for t in _THETAS])


def _worst_alignment(a, b) -> float:
    """Worst sin^2 sum between leading blocks of two POD bases, over the
    block sizes where the spectrum has a gap."""
    lam, worst = a.eigvals, 0.0
    for r in range(1, a.basis.dim + 1):
        if r == a.basis.dim or lam[r - 1] - lam[r] > 1e-6 * lam[0]:
            worst = max(worst, subspace_alignment(leading(a.basis, r), leading(b.basis, r)))
    return worst


@settings(derandomize=True, deadline=None, max_examples=20)
@given(exponent=st.floats(-6.0, 6.0))
def test_pod_is_invariant_to_snapshot_scale(exponent):
    c = 10.0 ** exponent
    metric = fine_metric(_MODEL)
    base, scaled = pod(_SNAPSHOTS, metric), pod(c * _SNAPSHOTS, metric)
    assert scaled.basis.dim == base.basis.dim
    assert select_dim(scaled.eigvals, 0.9999) == select_dim(base.eigvals, 0.9999)
    np.testing.assert_allclose(scaled.eigvals, c * c * base.eigvals, rtol=0,
                               atol=1e-12 * c * c * base.eigvals[0])
    assert _worst_alignment(base, scaled) < 1e-8


@settings(derandomize=True, deadline=None, max_examples=20)
@given(order=st.permutations(range(300)))
def test_pod_is_invariant_to_snapshot_order(order):
    metric = fine_metric(_MODEL)
    base, shuffled = pod(_SNAPSHOTS, metric), pod(_SNAPSHOTS[:, list(order)], metric)
    np.testing.assert_allclose(shuffled.eigvals, base.eigvals, rtol=0, atol=1e-12 * base.eigvals[0])
