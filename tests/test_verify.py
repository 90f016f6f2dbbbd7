import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
import mfpod.verify as verify
from mfpod.models import _child_seed
from mfpod.verify import _CHUNK, _descending_eigh, _grid_draws

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
    def constant(theta):  # one snapshot per parameter, an (n, m) block for m of them
        return np.ones((n,) + np.shape(theta))

    return ModelPair(
        high=constant,
        low=constant,
        metric=Metric.euclidean(n),
        sampler=lambda count, seed: sample_parameters(count, seed, (1.0, 100.0)),
        costs=ModelCosts(1.0, 0.25),
    )


def _eigsum(pair, r, m0_grid, repeats, seed, reference):
    """eigenvalue_sum_mse at the gamma_hat of the convergence study with the same settings."""
    conv = convergence_study(pair, 4, m0_grid, repeats, seed, reference=reference)
    return eigenvalue_sum_mse(pair, r, m0_grid, repeats, seed,
                              gamma_hat=conv.gamma_hat, reference=reference)


def test_convergence_study_degenerate_model_is_exact():
    pair = _constant_pair()
    res = convergence_study(pair, 4, (2, 4), repeats=30, seed=0,
                            reference=reference_matrix(pair, 50, 0))
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
            thetas = pair.sampler(q1 * m0, _child_seed(seed, m0, rep))
            u = np.column_stack([pair.high(t) for t in thetas])
            t = pair.metric.to_coords(u)
            mc = (t @ t.T) / (q1 * m0)
            errs[rep] = np.sum((mc - ref) ** 2)
        assert res.mean_sq_errors[k] == pytest.approx(errs.mean(), rel=1e-10)


def test_grid_draws_on_surrogate_blocks_match_the_per_theta_route():
    pair = _small_pair()

    def per_theta(theta):  # the surrogate solved one parameter at a time
        if np.ndim(theta):
            return np.column_stack([pair.low(t) for t in theta])
        return pair.low(theta)

    columns = ModelPair(high=pair.high, low=per_theta, metric=pair.metric,
                        sampler=pair.sampler, costs=pair.costs)
    def operators(p):
        return [[op.tobytes() for op in ops] for _, ops in _grid_draws(p, 4, (2, 4), 30, 6, 1.0)[1]]

    draws = operators(pair)
    assert [len(ops) for ops in draws] == [30, 30]
    assert draws == operators(columns)


def test_convergence_study_validation():
    pair = _small_pair()
    reference = reference_matrix(pair, 50, 0)
    with pytest.raises(ValueError):
        convergence_study(pair, 4, (4, 2), 30, 0, reference=reference)
    with pytest.raises(ValueError):
        convergence_study(pair, 4, (2, 4), 10, 0, reference=reference)
    with pytest.raises(ValueError):
        convergence_study(pair, 1, (2, 4), 30, 0, reference=reference)


def test_convergence_errors_decay_with_m0():
    pair = _small_pair()
    res = convergence_study(pair, 4, (2, 8, 32), repeats=60, seed=1,
                            reference=reference_matrix(pair, 2000, 1))
    assert not res.exact
    assert res.mean_sq_errors[0] > res.mean_sq_errors[-1]
    assert res.slope < -0.4
    assert res.gamma_hat > 0


def test_eigenvalue_sum_mse_bound_and_symmetry():
    pair = _small_pair()
    study = _eigsum(pair, 3, (2, 4, 8), 60, 2, reference_matrix(pair, 2000, 2))
    for m, b in zip(study.mse, study.bound):
        assert m <= 1.2 * b
    assert study.symmetry_max_dev <= 1e-9
    assert not study.gap_degenerate


def test_eigenvalue_sum_mse_doubling_ratio():
    pair = _small_pair()
    study = _eigsum(pair, 3, (2, 4, 8, 16), 150, 3, reference_matrix(pair, 2000, 3))
    for a, b in zip(study.mse, study.mse[1:]):
        assert 0.3 <= b / a <= 0.9


def test_eigenvalue_sum_alignment_bound_on_wide_gap():
    pair = _small_pair()
    ref = reference_matrix(pair, 2000, 4)
    study = _eigsum(pair, 1, (2, 4, 8), 60, 4, ref)
    vals = np.sort(scipy.linalg.eigh(ref, eigvals_only=True))[::-1]
    assert study.spectral_gap >= 0.1 * vals[0]  # instance qualifies for the bound
    for msq, b in zip(study.alignment_mean_sq, study.alignment_bound):
        assert msq <= 1.5 * b


def test_eigenvalue_energy_ratio_approaches_reference():
    pair = _small_pair()
    study = _eigsum(pair, 3, (2, 4, 8, 16), 60, 5, reference_matrix(pair, 2000, 5))
    ref_ratio = study.reference_energy_ratio
    final = study.energy_ratio_medians[-1]
    assert abs(final - ref_ratio) <= 0.05 * abs(ref_ratio)
    assert abs(final - ref_ratio) <= abs(study.energy_ratio_medians[0] - ref_ratio) + 1e-12


def test_eigenvalue_sum_validation():
    pair = _small_pair()
    reference = reference_matrix(pair, 50, 0)
    with pytest.raises(ValueError):
        eigenvalue_sum_mse(pair, 0, (2, 4), 30, 0, gamma_hat=1.0, reference=reference)
    with pytest.raises(ValueError):
        eigenvalue_sum_mse(pair, 3, (2, 4), 5, 0, gamma_hat=1.0, reference=reference)


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


def _broken_references(n):
    ref = np.eye(n)
    nan = ref.copy()
    nan[3, 3] = np.nan
    asym = ref.copy()
    asym[0, 1] = 1e-6
    return {"nan": (nan, "non-finite"), "asymmetric": (asym, "not symmetric"),
            "missized": (np.eye(n - 1), r"shape \(64, 64\), the metric needs \(65, 65\)")}


@pytest.mark.parametrize("case", ["nan", "asymmetric", "missized"])
def test_studies_reject_a_broken_reference_before_any_draw(case, monkeypatch):
    pair = _small_pair()
    reference, message = _broken_references(pair.metric.n)[case]

    def no_draw(*args):
        raise AssertionError("a draw was assembled before the reference was checked")

    monkeypatch.setattr(verify, "build_operator", no_draw)
    with pytest.raises(ValueError, match=message):
        convergence_study(pair, 4, (2, 4), 30, 0, reference=reference)
    with pytest.raises(ValueError, match=message):
        eigenvalue_sum_mse(pair, 3, (2, 4), 30, 0, gamma_hat=1.0, reference=reference)


def _full_descending(mat):
    vals, vecs = scipy.linalg.eigh(mat)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 40), log_scale=st.floats(-6.0, 6.0),
       data=st.data())
def test_descending_eigh_is_the_top_of_the_full_signed_spectrum(seed, n, log_scale, data):
    top = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal(n)
    lam[:2] = -abs(lam[0]), abs(lam[1])  # indefinite
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = (q * (10.0**log_scale * lam)) @ q.T
    mat = (mat + mat.T) / 2.0
    vals, vecs = _descending_eigh(mat, top)
    full_vals, full_vecs = _full_descending(mat)
    assert vals.shape == (top,) and vecs.shape == (n, top)
    scale = np.abs(full_vals).max()
    np.testing.assert_allclose(vals, full_vals[:top], rtol=0, atol=1e-12 * scale)
    if full_vals[top - 1] - full_vals[top] > 1e-4 * scale:  # the top subspace is well defined
        got, want = vecs @ vecs.T, full_vecs[:, :top] @ full_vecs[:, :top].T
        assert np.linalg.norm(got - want) <= 1e-8
    assert abs(np.trace(mat) - full_vals.sum()) <= 1e-12 * np.abs(full_vals).sum()


def test_eigenvalue_sum_solves_only_the_top_pairs_and_matches_full_solves(monkeypatch):
    pair = _small_pair()
    r, grid, repeats, seed = 3, (2, 4), 30, 11
    reference = reference_matrix(pair, 400, seed)
    calls = []
    full_eigh = scipy.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        calls.append((a is reference, kwargs.get("subset_by_index")))
        return full_eigh(a, *args, **kwargs)

    monkeypatch.setattr(verify.scipy.linalg, "eigh", recording_eigh)
    study = eigenvalue_sum_mse(pair, r, grid, repeats, seed, gamma_hat=1.0, reference=reference)
    monkeypatch.undo()
    assert not study.gap_degenerate
    assert len(calls) == 1 + len(grid) * repeats
    for is_reference, subset in calls:
        assert subset is not None
        lo, hi = subset
        assert hi == pair.metric.n - 1 and hi - lo + 1 <= (r + 1 if is_reference else r)
    assert sum(is_reference for is_reference, _ in calls) == 1

    # the same statistics from full eigensolves of the same operators
    ref_vals, ref_vecs = _full_descending(reference)
    vstar = ref_vecs[:, :r]
    mse, align, ratios = [], [], []
    for _, mats in _grid_draws(pair, 4, grid, repeats, seed, 1.0)[1]:
        dsum, asq, ratio = [], [], []
        for mat in mats:
            vals, vecs = _full_descending(mat)
            dsum.append(vals[:r].sum() - ref_vals[:r].sum())
            asq.append((r - np.sum((vecs[:, :r].T @ vstar) ** 2)) ** 2)
            ratio.append(vals[:r].sum() / vals.sum())
        mse.append(np.mean(np.square(dsum)))
        align.append(np.mean(asq))
        ratios.append(np.median(ratio))
    np.testing.assert_allclose(study.mse, mse, rtol=1e-10)
    np.testing.assert_allclose(study.alignment_mean_sq, align, rtol=1e-10)
    np.testing.assert_allclose(study.energy_ratio_medians, ratios, rtol=1e-10)
