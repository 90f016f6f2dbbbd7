import numpy as np
import pytest

from mfpod import (
    Allocation,
    Basis,
    Metric,
    VarianceProfile,
    estimate_profile,
    j_mf,
    mf_mse,
    min_mse,
    optimal_alpha,
    orthonormalize,
    pod_projection_error,
    usefulness,
)
from mfpod.core import SnapshotSet

from conftest import random_instance, random_spd_metric


def _alloc(m0, m1, alpha, c1=0.125):
    return Allocation((m0, m1), (alpha,), (1.0, c1))


def test_j_mc_matches_pod_projection_error():
    # the plain Monte Carlo estimate J_MC is pod_projection_error
    rng = np.random.default_rng(0)
    metric = random_spd_metric(rng, 12)
    s = rng.standard_normal((12, 6))
    basis = orthonormalize(rng.standard_normal((12, 3)), metric)
    resid = s - basis.vectors @ (basis.vectors.T @ metric.apply(s))
    assert pod_projection_error(basis, s) == pytest.approx(metric.norms_sq(resid).mean(), rel=1e-12)
    full = orthonormalize(rng.standard_normal((12, 12)), metric)
    assert pod_projection_error(full, s) <= 1e-12 * metric.norms_sq(s).max()
    empty = Basis(np.zeros((12, 0)), metric)
    assert pod_projection_error(empty, s) == pytest.approx(metric.norms_sq(s).mean(), rel=1e-12)


def test_j_mf_alpha_zero_collapses_to_mc():
    rng = np.random.default_rng(1)
    metric = random_spd_metric(rng, 10)
    sets = random_instance(rng, 10, 3, 7, metric)
    basis = orthonormalize(rng.standard_normal((10, 2)), metric)
    lhs = j_mf(basis, sets, _alloc(3, 7, 0.0))
    assert lhs == pytest.approx(pod_projection_error(basis, sets[0].shared), rel=1e-14)


def test_j_mf_identical_levels_telescopes():
    rng = np.random.default_rng(2)
    metric = random_spd_metric(rng, 9)
    m0, m1 = 2, 6
    u = rng.standard_normal((9, m1))
    ids = tuple(range(m1))
    sets = (
        SnapshotSet(0, u[:, :m0], np.zeros((9, 0)), ids[:m0], 1.0),
        SnapshotSet(1, u[:, :m0], u[:, m0:], ids, 0.25),
    )
    basis = orthonormalize(rng.standard_normal((9, 3)), metric)
    lhs = j_mf(basis, sets, _alloc(m0, m1, 1.0, c1=0.25))
    assert lhs == pytest.approx(pod_projection_error(basis, u), rel=1e-12)


def test_j_mf_matches_term_by_term_sum():
    rng = np.random.default_rng(3)
    metric = random_spd_metric(rng, 14)
    sets = random_instance(rng, 14, 3, 8, metric)
    basis = orthonormalize(rng.standard_normal((14, 4)), metric)
    alpha = 0.7

    def res_energy(cols):
        d = cols - basis.vectors @ (basis.vectors.T @ metric.apply(cols))
        return metric.norms_sq(d)

    e0 = res_energy(sets[0].shared)
    e1 = res_energy(sets[1].columns)
    expected = e0.mean() + alpha * (e1.mean() - e1[:3].mean())
    assert j_mf(basis, sets, _alloc(3, 8, alpha)) == pytest.approx(expected, rel=1e-12)


def test_j_mf_rejects_mismatched_allocation():
    rng = np.random.default_rng(4)
    metric = random_spd_metric(rng, 8)
    sets = random_instance(rng, 8, 2, 5, metric)
    basis = Basis(np.zeros((8, 0)), metric)
    with pytest.raises(ValueError):
        j_mf(basis, sets, _alloc(2, 6, 1.0))


def test_mf_mse_hand_example():
    # m=(2,4), alpha=1, all second moments 1: 1/2 + (1/2-1/4)(1-2) = 1/4
    prof = VarianceProfile((1.0, 1.0), (1.0,), 2)
    assert mf_mse(prof, _alloc(2, 4, 1.0)) == pytest.approx(0.25, rel=1e-14)
    assert mf_mse(prof, _alloc(2, 4, 0.0)) == pytest.approx(0.5, rel=1e-14)


def test_optimal_alpha_cases():
    assert optimal_alpha(VarianceProfile((1.0, 0.0), (0.0,), 5)) == (0.0,)
    assert optimal_alpha(VarianceProfile((2.0, 2.0), (2.0,), 5)) == (1.0,)
    assert optimal_alpha(VarianceProfile((3.0, 4.0), (2.0,), 5)) == (0.5,)


def test_min_mse_matches_mf_mse_at_optimum_and_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s0, s1 = rng.uniform(0.1, 4.0, size=2)
        rho = rng.uniform(-0.95, 0.95)
        prof = VarianceProfile((s0, s1), (rho * np.sqrt(s0 * s1),), 10)
        alloc = _alloc(3, 9, 0.0)
        best = min_mse(prof, alloc)
        at_opt = mf_mse(prof, Allocation((3, 9), optimal_alpha(prof), (1.0, 0.125)))
        assert best == pytest.approx(at_opt, rel=1e-12)
        assert best <= s0 / 3 + 1e-15
        for a in rng.uniform(-2, 2, size=8):
            assert best <= mf_mse(prof, _alloc(3, 9, a)) + 1e-12


def test_min_mse_skips_zero_variance_level():
    prof = VarianceProfile((2.0, 0.0), (0.0,), 4)
    assert min_mse(prof, _alloc(2, 8, 0.0)) == pytest.approx(1.0)


def test_usefulness_truth_table():
    uncorr = VarianceProfile((1.0, 1.0), (0.0,), 4)
    assert usefulness(uncorr, _alloc(2, 8, 0.0), m_mc=5) is False
    perfect = VarianceProfile((1.0, 1.0), (1.0,), 4)
    assert usefulness(perfect, _alloc(2, 248, 1.0), m_mc=5) is True
    assert usefulness(uncorr, _alloc(5, 10, 0.0), m_mc=5) is False


def test_estimate_profile_degenerate_and_identical():
    rng = np.random.default_rng(6)
    metric = Metric.euclidean(6)
    m0, m1 = 3, 6
    u = np.tile(rng.standard_normal(6)[:, None], (1, m1))  # constant residual norms
    ids = tuple(range(m1))
    sets = (
        SnapshotSet(0, u[:, :m0], np.zeros((6, 0)), ids[:m0], 1.0),
        SnapshotSet(1, u[:, :m0], u[:, m0:], ids, 0.5),
    )
    empty = Basis(np.zeros((6, 0)), metric)
    prof = estimate_profile(empty, sets)
    np.testing.assert_array_equal(prof.sigma2, [0.0, 0.0])
    sets2 = random_instance(rng, 6, 3, 6, metric)
    same = (sets2[0], SnapshotSet(1, sets2[0].shared, sets2[1].extra, ids, 0.5))
    prof2 = estimate_profile(empty, same)
    assert optimal_alpha(prof2) == (1.0,)


def test_estimate_profile_against_two_pass_oracle():
    rng = np.random.default_rng(7)
    metric = random_spd_metric(rng, 10)
    sets = random_instance(rng, 10, 5, 12, metric)
    basis = orthonormalize(rng.standard_normal((10, 2)), metric)

    def res_energy(cols):
        d = cols - basis.vectors @ (basis.vectors.T @ metric.apply(cols))
        return metric.norms_sq(d)

    x = res_energy(sets[0].shared)
    y = res_energy(sets[1].shared)
    prof = estimate_profile(basis, sets)
    assert prof.sigma2[0] == pytest.approx(np.var(x, ddof=1), rel=1e-12)
    assert prof.sigma2[1] == pytest.approx(np.var(y, ddof=1), rel=1e-12)
    cov = np.cov(x, y, ddof=1)[0, 1]
    assert prof.cov0[0] == pytest.approx(cov, rel=1e-12)


def test_estimate_profile_single_shared_sample_gives_zeros():
    rng = np.random.default_rng(8)
    metric = Metric.euclidean(5)
    sets = random_instance(rng, 5, 1, 3, metric)
    prof = estimate_profile(Basis(np.zeros((5, 0)), metric), sets)
    np.testing.assert_array_equal(prof.sigma2, [0.0, 0.0])
    np.testing.assert_array_equal(prof.cov0, [0.0])
    assert optimal_alpha(prof) == (0.0,)


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
def test_estimate_profile_near_identical_levels_at_any_scale(scale):
    # Levels equal to relative 1e-13: the sample covariance meets the
    # Cauchy-Schwarz bound up to roundoff, whose size follows the data's units.
    n, m0, m1 = 20, 6, 12
    empty = Basis.empty(Metric.euclidean(n))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, m1)) * scale
        lf = u * (1 + 1e-13 * rng.standard_normal((1, m1)))
        ids = tuple(range(m1))
        sets = (SnapshotSet(0, u[:, :m0], np.zeros((n, 0)), ids[:m0], 1.0),
                SnapshotSet(1, lf[:, :m0], lf[:, m0:], ids, 0.25))
        assert optimal_alpha(estimate_profile(empty, sets))[0] == pytest.approx(1.0, rel=1e-9)


def test_profile_and_allocation_validation():
    with pytest.raises(ValueError):
        VarianceProfile((-1.0, 1.0), (0.0,), 3)
    with pytest.raises(ValueError):
        VarianceProfile((1.0, 1.0), (5.0,), 3)  # cov exceeds Cauchy-Schwarz
    with pytest.raises(ValueError):
        Allocation((4, 4), (1.0,), (1.0, 0.5))
    with pytest.raises(ValueError):
        Allocation((2, 4), (1.0,), (1.0, 0.5), budget=1.0)
    ok = Allocation((2, 4), (1.0,), (1.0, 0.5), budget=4.2)
    assert ok.total_cost == pytest.approx(4.0)
