import numpy as np
import pytest
import scipy.linalg

from mfpod import (
    AdvDiffConfig,
    Basis,
    Metric,
    ModelCosts,
    ModelPair,
    build_operator,
    convergence_study,
    eigenvalue_sum_mse,
    hs_error,
    make_model_pair,
    orthonormalize,
    reference_matrix,
    sample_parameters,
    subspace_alignment,
)
from mfpod.verify import _study_seed

from conftest import assemble_mf_matrix, random_instance, random_spd_metric


def _small_pair(n_hf=65, n_lf=17):
    return make_model_pair(AdvDiffConfig(n_hf=n_hf, n_lf=n_lf))


def test_hs_error_zero_against_own_assembly():
    rng = np.random.default_rng(0)
    metric = random_spd_metric(rng, 10)
    sets = random_instance(rng, 10, 2, 6, metric)
    op = build_operator(sets, (0.7,), metric)
    assert hs_error(op, assemble_mf_matrix(sets, 0.7), metric) <= 1e-12


def test_hs_error_alpha_zero_reference():
    rng = np.random.default_rng(1)
    metric = random_spd_metric(rng, 8)
    sets = random_instance(rng, 8, 3, 6, metric)
    op = build_operator(sets, (0.0,), metric)
    s0 = sets[0].shared
    ref = (s0 @ s0.T) / 3.0
    assert hs_error(op, ref, metric) <= 1e-12 * np.abs(ref).max()


def test_hs_error_matches_bruteforce_frobenius():
    rng = np.random.default_rng(2)
    metric = random_spd_metric(rng, 12)
    sets = random_instance(rng, 12, 2, 5, metric)
    alpha = 1.3
    op = build_operator(sets, (alpha,), metric)
    ref = rng.standard_normal((12, 12))
    ref = (ref + ref.T) / 2
    f = np.linalg.cholesky(np.asarray(metric.weight))
    brute = np.linalg.norm(f.T @ (assemble_mf_matrix(sets, alpha) - ref) @ f)
    assert hs_error(op, ref, metric) == pytest.approx(brute, rel=1e-10)


def test_hs_error_input_validation():
    rng = np.random.default_rng(3)
    metric = Metric.euclidean(6)
    sets = random_instance(rng, 6, 2, 4, metric)
    op = build_operator(sets, (1.0,), metric)
    with pytest.raises(ValueError):
        hs_error(op, np.zeros((5, 5)), metric)


def test_subspace_alignment_identity_and_complement():
    rng = np.random.default_rng(4)
    metric = random_spd_metric(rng, 10)
    full = orthonormalize(rng.standard_normal((10, 6)), metric)
    v = Basis(full.vectors[:, :3], metric)
    w = Basis(full.vectors[:, 3:], metric)
    assert subspace_alignment(v, v) <= 1e-12
    assert subspace_alignment(v, w) == pytest.approx(3.0, abs=1e-10)
    a = orthonormalize(rng.standard_normal((10, 4)), metric)
    b = orthonormalize(rng.standard_normal((10, 4)), metric)
    assert subspace_alignment(a, b) == pytest.approx(subspace_alignment(b, a), abs=1e-10)
    with pytest.raises(ValueError):
        subspace_alignment(v, a)


def _constant_pair(n=6):
    u = np.ones(n)
    return ModelPair(
        high=lambda t: u.copy(),
        low=lambda t: u.copy(),
        metric=Metric.euclidean(n),
        sampler=lambda count, seed: sample_parameters(count, seed, (1.0, 100.0)),
        costs=ModelCosts(1.0, 0.25),
    )


def test_convergence_study_degenerate_model_is_exact():
    res = convergence_study(_constant_pair(), 4, (2, 4), repeats=30, seed=0,
                            reference_size=50)
    assert res.exact
    assert np.isnan(res.slope)
    assert max(res.mean_sq_errors) <= 1e-20


def test_convergence_study_identical_levels_match_plain_mc():
    # with u_1 == u_0 and alpha=1 the estimate telescopes to m_1-sample MC
    cfg = AdvDiffConfig(n_hf=65, n_lf=17)
    base = make_model_pair(cfg)
    pair = ModelPair(high=base.high, low=base.high, metric=base.metric,
                     sampler=base.sampler, costs=base.costs)
    seed, q1, repeats, grid = 5, 4, 30, (2, 4)
    ref = reference_matrix(pair, 200, seed)
    res = convergence_study(pair, q1, grid, repeats, seed, alpha=1.0, reference=ref)
    for k, m0 in enumerate(grid):
        errs = np.empty(repeats)
        for rep in range(repeats):
            thetas = pair.sampler(q1 * m0, _study_seed(seed, m0, rep))
            u = np.column_stack([pair.high(t) for t in thetas])
            t = pair.metric.to_coords(u)
            mc = (t @ t.T) / (q1 * m0)
            errs[rep] = np.sum((mc - ref) ** 2)
        assert res.mean_sq_errors[k] == pytest.approx(errs.mean(), rel=1e-10)


def test_convergence_study_validation():
    pair = _small_pair()
    with pytest.raises(ValueError):
        convergence_study(pair, 4, (4, 2), 30, 0, reference_size=50)
    with pytest.raises(ValueError):
        convergence_study(pair, 4, (2, 4), 10, 0, reference_size=50)
    with pytest.raises(ValueError):
        convergence_study(pair, 1, (2, 4), 30, 0, reference_size=50)


def test_convergence_errors_decay_with_m0():
    pair = _small_pair()
    res = convergence_study(pair, 4, (2, 8, 32), repeats=60, seed=1, reference_size=2000)
    assert not res.exact
    assert res.mean_sq_errors[0] > res.mean_sq_errors[-1]
    assert res.slope < -0.4
    assert res.gamma_hat > 0


def test_eigenvalue_sum_mse_bound_and_symmetry():
    pair = _small_pair()
    study = eigenvalue_sum_mse(pair, 3, (2, 4, 8), repeats=60, seed=2,
                               reference_size=2000)
    for m, b in zip(study.mse, study.bound):
        assert m <= 1.2 * b
    assert study.symmetry_max_dev <= 1e-9
    assert not study.gap_degenerate


def test_eigenvalue_sum_mse_doubling_ratio():
    pair = _small_pair()
    study = eigenvalue_sum_mse(pair, 3, (2, 4, 8, 16), repeats=150, seed=3,
                               reference_size=2000)
    for a, b in zip(study.mse, study.mse[1:]):
        assert 0.3 <= b / a <= 0.9


def test_eigenvalue_sum_alignment_bound_on_wide_gap():
    pair = _small_pair()
    study = eigenvalue_sum_mse(pair, 1, (2, 4, 8), repeats=60, seed=4,
                               reference_size=2000)
    ref = reference_matrix(pair, 2000, 4)
    vals = np.sort(scipy.linalg.eigh(ref, eigvals_only=True))[::-1]
    assert study.spectral_gap >= 0.1 * vals[0]  # instance qualifies for the bound
    for msq, b in zip(study.alignment_mean_sq, study.alignment_bound):
        assert msq <= 1.5 * b


def test_eigenvalue_energy_ratio_approaches_reference():
    pair = _small_pair()
    study = eigenvalue_sum_mse(pair, 3, (2, 4, 8, 16), repeats=60, seed=5,
                               reference_size=2000)
    ref_ratio = study.reference_energy_ratio
    final = study.energy_ratio_medians[-1]
    assert abs(final - ref_ratio) <= 0.05 * abs(ref_ratio)
    assert abs(final - ref_ratio) <= abs(study.energy_ratio_medians[0] - ref_ratio) + 1e-12


def test_eigenvalue_sum_validation():
    pair = _small_pair()
    with pytest.raises(ValueError):
        eigenvalue_sum_mse(pair, 0, (2, 4), 30, 0, reference_size=50)
    with pytest.raises(ValueError):
        eigenvalue_sum_mse(pair, 3, (2, 4), 5, 0, reference_size=50)
