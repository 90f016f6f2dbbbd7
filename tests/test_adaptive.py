from functools import cached_property

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpod import (
    AdvDiffConfig,
    Basis,
    Metric,
    SnapshotSet,
    adaptive,
    estimate_profile,
    make_model_pair,
    mfpod_adaptive,
    mfpod_fixed,
    optimal_alpha,
    orthonormalize,
    pod,
    subspace_alignment,
)
from mfpod.mfpod import SnapshotSpan

_span_profile = SnapshotSpan.profile

from conftest import (adaptive_oracle, banded_metric, column_profile, random_instance,
                      random_spd_metric)


def _identical_level_sets(rng, n, m0, m1, spread=True):
    """Two-level instance with u_1 == u_0 columnwise."""
    u = rng.standard_normal((n, m1))
    if spread:
        u *= np.logspace(0, -2, m1)  # distinct singular values, non-degenerate spectrum
    ids = tuple(range(m1))
    return (
        SnapshotSet(0, u[:, :m0], np.zeros((n, 0)), ids[:m0], 1.0),
        SnapshotSet(1, u[:, :m0], u[:, m0:], ids, 0.25),
    )


def test_adaptive_weight_identical_levels_is_one():
    rng = np.random.default_rng(0)
    metric = random_spd_metric(rng, 10)
    sets = _identical_level_sets(rng, 10, 3, 7, spread=False)
    empty = Basis(np.zeros((10, 0)), metric)
    assert optimal_alpha(estimate_profile(empty, sets))[0] == pytest.approx(1.0, rel=1e-12)


def test_adaptive_weight_zero_when_lf_fully_captured():
    rng = np.random.default_rng(1)
    metric = random_spd_metric(rng, 12)
    sets = random_instance(rng, 12, 3, 6, metric)
    lf_span = orthonormalize(sets[1].columns, metric)
    assert optimal_alpha(estimate_profile(lf_span, sets))[0] == 0.0


def test_adaptive_weight_matches_covariance_ratio():
    rng = np.random.default_rng(2)
    metric = random_spd_metric(rng, 14)
    sets = random_instance(rng, 14, 6, 12, metric)
    basis = orthonormalize(rng.standard_normal((14, 3)), metric)

    def res_energy(cols):
        d = cols - basis.vectors @ (basis.vectors.T @ metric.apply(cols))
        return metric.norms_sq(d)

    x = res_energy(sets[0].shared)
    y = res_energy(sets[1].shared)
    expected = np.cov(x, y, ddof=1)[0, 1] / np.var(y, ddof=1)
    assert optimal_alpha(estimate_profile(basis, sets))[0] == pytest.approx(expected, rel=1e-10)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), m0=st.integers(1, 5),
       extra=st.integers(1, 25), bandwidth=st.integers(0, 3), steps=st.integers(0, 40))
def test_span_profile_matches_estimate_profile_at_the_lifted_basis(seed, n, m0, extra,
                                                                   bandwidth, steps):
    # the adaptive loop's weights come from span coordinates; they must be
    # the column oracle's profile of the n-dimensional basis F^-T Q Z up to roundoff
    rng = np.random.default_rng(seed)
    metric = Metric.euclidean(n) if bandwidth == 0 else banded_metric(rng, n, bandwidth)
    sets = random_instance(rng, n, m0, m0 + extra, metric)
    span = SnapshotSpan.from_sets(sets, metric)
    z, _ = np.linalg.qr(rng.standard_normal((span.rank, min(steps, span.rank))))
    got = _span_profile(span, z)
    want = column_profile(Basis(metric.from_coords(span.basis @ z), metric), sets)
    scale = max(float(want.sigma2.max()), 1e-300)
    np.testing.assert_allclose(got.sigma2, want.sigma2, rtol=1e-10, atol=1e-10 * scale)
    np.testing.assert_allclose(got.cov0, want.cov0, rtol=1e-10, atol=1e-10 * scale)
    assert got.sample_count == want.sample_count == m0


def test_identical_levels_match_fixed_alpha_one():
    rng = np.random.default_rng(3)
    metric = random_spd_metric(rng, 16)
    sets = _identical_level_sets(rng, 16, 3, 8)
    mf_a, trace = mfpod_adaptive(sets, kappa=0.999999, metric=metric)
    mf_f = mfpod_fixed(sets, (1.0,), kappa=0.999999, metric=metric)
    np.testing.assert_allclose(trace.alphas, 1.0, atol=1e-9)
    vals_f = np.sort(mf_f.raw_eigvals)[::-1]
    vals_a = np.sort(mf_a.raw_eigvals)[::-1]
    k = min(len(vals_a), len(vals_f))
    np.testing.assert_allclose(vals_a[:k], vals_f[:k], rtol=1e-8)
    top = np.abs(vals_f).max()
    for r in range(1, k + 1):
        gap = vals_f[r - 1] - (vals_f[r] if r < k else 0.0)
        if gap > 1e-6 * top:
            a = orthonormalize(mf_a.vectors[:, np.argsort(-mf_a.raw_eigvals)[:r]], metric)
            b = orthonormalize(mf_f.vectors[:, np.argsort(-mf_f.raw_eigvals)[:r]], metric)
            assert subspace_alignment(a, b) < 1e-6


def test_orthogonal_hf_with_zero_lf_reproduces_hf_pod():
    n, m0, m1 = 10, 3, 6
    hf = np.zeros((n, m0))
    hf[0, 0], hf[1, 1], hf[2, 2] = 3.0, 2.0, 1.0
    ids = tuple(range(m1))
    sets = (
        SnapshotSet(0, hf, np.zeros((n, 0)), ids[:m0], 1.0),
        SnapshotSet(1, np.zeros((n, m0)), np.zeros((n, m1 - m0)), ids, 0.5),
    )
    metric = Metric.euclidean(n)
    mf, trace = mfpod_adaptive(sets, kappa=0.999999, metric=metric)
    assert len(trace.steps) == m0
    np.testing.assert_allclose(trace.alphas, 0.0, atol=1e-15)
    ref = pod(hf, metric)
    np.testing.assert_allclose(np.sort(mf.raw_eigvals)[::-1], ref.eigvals[:m0], rtol=1e-10)
    assert subspace_alignment(Basis(mf.vectors, metric), ref.basis) < 1e-8


def test_trace_residuals_strictly_decreasing():
    rng = np.random.default_rng(4)
    metric = random_spd_metric(rng, 20)
    sets = random_instance(rng, 20, 4, 9, metric)
    mf, trace = mfpod_adaptive(sets, kappa=0.99, metric=metric)
    res = np.array([s.residual for s in trace.steps])
    assert (np.diff(res) < 0).all()
    assert trace.termination in ("residual", "rank", "exhausted")


def test_final_span_contains_hf_snapshots():
    rng = np.random.default_rng(5)
    metric = random_spd_metric(rng, 15)
    sets = random_instance(rng, 15, 3, 7, metric)
    mf, trace = mfpod_adaptive(sets, kappa=0.999, metric=metric)
    if trace.termination == "residual":
        v = mf.full_basis.vectors
        s0 = sets[0].shared
        resid = s0 - v @ (v.T @ metric.apply(s0))
        norm0 = np.sqrt(metric.norms_sq(s0).sum())
        assert np.sqrt(metric.norms_sq(resid).sum()) <= 1e-9 * norm0


def test_extracted_modes_metric_orthogonal():
    rng = np.random.default_rng(6)
    metric = random_spd_metric(rng, 18)
    sets = random_instance(rng, 18, 3, 8, metric)
    mf, _ = mfpod_adaptive(sets, kappa=0.99, metric=metric)
    assert mf.full_basis.orthonormality_defect() < 1e-9


def test_two_level_requirement():
    rng = np.random.default_rng(7)
    metric = Metric.euclidean(8)
    sets = random_instance(rng, 8, 2, 5, metric)
    with pytest.raises(ValueError):
        mfpod_adaptive(sets[:1], kappa=0.99, metric=metric)
    with pytest.raises(ValueError, match="two fidelity levels"):
        mfpod_adaptive(SnapshotSpan.from_sets(sets[:1], metric), kappa=0.99, metric=metric)


def test_a_prebuilt_span_fits_bit_for_bit_as_its_sets():
    # a study repeat builds its span once and hands it to the loop, which
    # must fit exactly what it fits when it builds the span from the sets
    rng = np.random.default_rng(9)
    pair = make_model_pair(AdvDiffConfig(n_hf=129, n_lf=17))
    thetas = pair.sampler(12, 0)
    cases = [(random_instance(rng, 12, 3, 8, metric), metric)
             for metric in (Metric.euclidean(12), random_spd_metric(rng, 12))]
    cases.append((SnapshotSet.two_level(pair.high(thetas[:4]), pair.coarse(thetas), 1.0, 0.1,
                                        pair.lift), pair.metric))
    for sets, metric in cases:
        mf, trace = mfpod_adaptive(sets, 0.99, metric)
        got, got_trace = mfpod_adaptive(SnapshotSpan.from_sets(sets, metric), 0.99, metric)
        assert mf.mode_count > 0 and got_trace == trace
        for name in ("raw_eigvals", "corrected_eigvals", "coords"):
            assert getattr(got, name).tobytes() == getattr(mf, name).tobytes(), name
        assert got.selected_dim == mf.selected_dim


def test_mfpod_adaptive_refuses_a_span_in_another_metric():
    rng = np.random.default_rng(10)
    metric = random_spd_metric(rng, 12)
    span = SnapshotSpan.from_sets(random_instance(rng, 12, 3, 8, metric), metric)
    with pytest.raises(ValueError, match="share one metric"):
        mfpod_adaptive(span, 0.99, Metric.euclidean(12))
    assert mfpod_adaptive(span, 0.99, metric)[0].metric is metric


def test_zero_hf_terminates_immediately():
    n = 6
    ids = (0, 1, 2)
    rng = np.random.default_rng(8)
    sets = (
        SnapshotSet(0, np.zeros((n, 1)), np.zeros((n, 0)), ids[:1], 1.0),
        SnapshotSet(1, rng.standard_normal((n, 1)), rng.standard_normal((n, 2)), ids, 0.5),
    )
    mf, trace = mfpod_adaptive(sets, kappa=0.9, metric=Metric.euclidean(n))
    assert trace.termination == "residual"
    assert len(trace.steps) == 0 and mf.mode_count == 0


def _extraction_order(mf, trace):
    """The modes of mf in the order the loop found them, up to the first
    one that _finalize_basis truncated."""
    cols = []
    for step in trace.steps:
        match = np.flatnonzero(mf.raw_eigvals == step.raw_eigval)
        if len(match) != 1:
            break
        cols.append(match[0])
    return mf.vectors[:, cols]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), m0=st.integers(2, 6),
       extra=st.integers(1, 40), bandwidth=st.integers(0, 3))
def test_restricted_loop_matches_the_projected_deflation_oracle(seed, n, m0, extra, bandwidth):
    rng = np.random.default_rng(seed)
    metric = Metric.euclidean(n) if bandwidth == 0 else banded_metric(rng, n, bandwidth)
    sets = random_instance(rng, n, m0, m0 + extra, metric)
    mf, trace = mfpod_adaptive(sets, 0.9999, metric)
    mf_o, trace_o, gaps, profiles = adaptive_oracle(sets, 0.9999, metric)
    assert (len(trace.steps), trace.termination) == (len(trace_o.steps), trace_o.termination)
    if not trace.steps:
        return
    span = SnapshotSpan.from_sets(sets, metric)
    energy = max(float(np.einsum("ij,ij->j", p, p).max())
                 for p in (span.projections[0], span.projections[1][:, :m0]))
    corr = np.linalg.norm(span.operator((1.0,)) - span.operator((0.0,)), 2)
    top = max(abs(s.raw_eigval) for s in trace_o.steps)
    for s, s_o, prof in zip(trace.steps, trace_o.steps, profiles):
        # alpha = cov / sigma_lf^2 is fitted to residual energies known to
        # roundoff of their scale, so where the surrogate's residual energies
        # barely spread (sigma_lf small) both loops' weights are that uncertain
        sd_hf, sd_lf = np.sqrt(prof.sigma2)
        a = s_o.alpha
        cond = energy * (sd_hf + (1 + 2 * abs(a)) * sd_lf) / max(sd_lf**2, 1e-300)
        tol_alpha = 1e-9 * max(1.0, abs(a)) + 1e-12 * cond
        assert abs(s.alpha - a) <= tol_alpha, (s, s_o)
        tol = 1e-10 * top + tol_alpha * corr
        assert abs(s.raw_eigval - s_o.raw_eigval) <= tol, (s, s_o)
        assert abs(s.corrected_eigval - s_o.corrected_eigval) <= tol, (s, s_o)
    # the first j modes span the same subspace while every step up to j had a clear winner
    v, v_o = _extraction_order(mf, trace), _extraction_order(mf_o, trace_o)
    guarded = np.flatnonzero(np.minimum.accumulate(gaps) > 1e-4 * top)
    for j in guarded[guarded < min(v.shape[1], v_o.shape[1])] + 1:
        va, vb = v[:, :j], v_o[:, :j]
        outside = vb - va @ (va.T @ metric.apply(vb))
        assert np.sqrt(metric.norms_sq(outside).max()) <= 1e-8, j


def _exhausting_instance():
    """Identical shared columns and the weights to fit at each step: at weight 0
    the first mode is e_1, and m_1 / (m_1 - m_0) then cancels the shared
    columns' operator, leaving only the extra column e_1, already found."""
    n, m0, m1 = 8, 3, 4
    hf = np.zeros((n, m0))
    hf[0, 0], hf[1, 1], hf[2, 2] = 3.0, 2.0, 1.0
    extra = np.zeros((n, 1))
    extra[0, 0] = 1.0
    ids = tuple(range(m1))
    sets = (SnapshotSet(0, hf, np.zeros((n, 0)), ids[:m0], 1.0),
            SnapshotSet(1, hf, extra, ids, 0.5))
    return sets, Metric.euclidean(n), (0.0, m1 / (m1 - m0))


@pytest.mark.parametrize("case", ["random", "exhausted"])
def test_each_step_solves_one_shrinking_restriction(monkeypatch, case):
    # guards against a per-step rebuild of the operator or a full-size deflated solve
    if case == "random":
        rng = np.random.default_rng(9)
        metric = random_spd_metric(rng, 30)
        sets, weights = random_instance(rng, 30, 4, 20, metric), None
    else:
        sets, metric, weights = _exhausting_instance()
        fitted = iter(weights)
        monkeypatch.setattr(adaptive, "optimal_alpha", lambda profile: (next(fitted),))
    shapes, grams = [], []
    real_dsyevd, real_grams = scipy.linalg.lapack.dsyevd, SnapshotSpan._grams.func

    def dsyevd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_dsyevd(a, *args, **kwargs)

    def counted_grams(span):
        grams.append(span)
        return real_grams(span)

    counted = cached_property(counted_grams)
    counted.__set_name__(SnapshotSpan, "_grams")
    monkeypatch.setattr(adaptive.scipy.linalg.lapack, "dsyevd", dsyevd)
    monkeypatch.setattr(SnapshotSpan, "_grams", counted)
    _, trace = mfpod_adaptive(sets, 0.9999, metric)
    k = SnapshotSpan.from_sets(sets, metric).rank
    solves = len(trace.steps) + (trace.termination == "exhausted")
    assert trace.termination == ("exhausted" if weights else "residual")
    assert solves >= 2
    assert shapes == [(k - j, k - j) for j in range(solves)]
    assert len(grams) == 1


def test_a_surrogate_direction_the_high_fidelity_lacks_does_not_end_the_fit():
    # the surrogate repeats the high-fidelity columns, so the pilot weight is 1,
    # and adds strong columns along e_3, which no high-fidelity column holds:
    # the first mode is e_3, which leaves the high-fidelity residual as it was,
    # and the fit goes on to capture every high-fidelity snapshot
    n, metric = 8, Metric.euclidean(8)
    eye = np.eye(n)
    hf = eye[:, :3] * [1.0, 2.0, 3.0]
    lf = np.hstack([hf, 10.0 * eye[:, [3, 3, 3]]])
    sets = SnapshotSet.two_level(hf, lf, 1.0, 0.25)
    mf, trace = mfpod_adaptive(sets, 0.9999, metric)
    assert trace.termination == "residual"
    assert trace.alphas == (1.0,) * 4 and mf.mode_count == mf.selected_dim == 4
    assert trace.steps[0].residual == pytest.approx(np.linalg.norm(hf), rel=1e-14)
    np.testing.assert_allclose(np.abs(mf.vectors[:, 0]), eye[:, 3], atol=1e-14)
    np.testing.assert_allclose(mf.vectors @ (mf.vectors.T @ hf), hf, atol=1e-14)
    # the fixed-weight fit at the same weight keeps the same four directions
    fixed = mfpod_fixed(sets, (1.0,), 0.9999, metric)
    assert fixed.mode_count == fixed.selected_dim == 4
    np.testing.assert_allclose(mf.corrected_eigvals, fixed.corrected_eigvals, rtol=1e-14)
