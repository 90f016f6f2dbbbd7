import numpy as np
import pytest
import scipy.linalg

from mfpod import (
    AdvDiffConfig,
    Basis,
    Metric,
    ModelCosts,
    ModelPair,
    convergence_study,
    eigenvalue_sum_mse,
    make_model_pair,
    orthonormalize,
    reference_matrix,
    sample_parameters,
    subspace_alignment,
)
from mfpod.core import _CHUNK
from mfpod.verify import _study_seed

from conftest import random_spd_metric


def _small_pair(n_hf=65, n_lf=17):
    return make_model_pair(AdvDiffConfig(n_hf=n_hf, n_lf=n_lf))


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


def test_eigenvalue_sum_validates_grid_and_q1_when_gamma_hat_is_given():
    pair = _small_pair()
    reference = np.eye(pair.metric.n)
    for grid in ((4, 2), (4,), (0, 4)):
        with pytest.raises(ValueError, match="m0_grid"):
            eigenvalue_sum_mse(pair, 3, grid, 30, 0, gamma_hat=1.0, reference=reference)
    with pytest.raises(ValueError, match="q1"):
        eigenvalue_sum_mse(pair, 3, (2, 4), 30, 0, q1=1, gamma_hat=1.0, reference=reference)


def test_reference_matrix_streams_chunks_exactly():
    # several chunks of the streamed second moment, the last one partial
    pair = _small_pair()
    size = 2 * _CHUNK + 17
    ref = reference_matrix(pair, size, 9)
    t = pair.metric.to_coords(np.column_stack([pair.high(th) for th in pair.sampler(size, 9)]))
    oneshot = t @ t.T / size
    assert ref.shape == (65, 65)
    assert np.linalg.norm(ref - oneshot) <= 1e-13 * np.linalg.norm(oneshot)
    with pytest.raises(ValueError):
        reference_matrix(pair, 0, 9)
    with pytest.raises(ValueError):
        reference_matrix(make_model_pair(AdvDiffConfig(n_hf=4097 + 4096, n_lf=33)), 1, 9)
