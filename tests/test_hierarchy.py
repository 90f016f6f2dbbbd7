"""Properties of the telescoping hierarchy at three levels (3/7/16 columns)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpod import (
    Basis,
    SnapshotSet,
    estimate_profile,
    mfpod_fixed,
    optimal_alpha,
    orthonormalize,
    pod,
    select_dim,
)
from mfpod.mfpod import SnapshotSpan, build_operator

from conftest import random_spd_metric

_COUNTS = (3, 7, 16)
_KAPPA = 0.9999

_properties = settings(derandomize=True, deadline=None, max_examples=40)
_seeds = st.integers(0, 2**32 - 1)
_dims = st.integers(17, 30)


def _three_levels(rng, n):
    """Correlated levels on shared draws, each noisier than the one above."""
    metric = random_spd_metric(rng, n)
    base = rng.standard_normal((n, _COUNTS[-1]))
    ids = tuple(range(_COUNTS[-1]))
    sets = []
    for ell, (m, noise, cost) in enumerate(zip(_COUNTS, (0.1, 0.3, 0.5), (1.0, 0.25, 0.05))):
        u = base[:, :m] + noise * rng.standard_normal((n, m))
        shared = _COUNTS[ell - 1] if ell else m  # the level above's draws, in order
        sets.append(SnapshotSet(ell, u[:, :shared], u[:, shared:], ids[:m], cost))
    return tuple(sets), metric


def _alphas(rng):
    return tuple(rng.uniform(0.0, 1.5, 2))


@_properties
@given(seed=_seeds, n=_dims)
def test_span_operator_is_the_dense_operator_on_the_span(seed, n):
    rng = np.random.default_rng(seed)
    sets, metric = _three_levels(rng, n)
    alphas = _alphas(rng)
    span = SnapshotSpan.from_sets(sets, metric)
    dense = build_operator(sets, alphas, metric).assemble_transformed()
    want = span.basis.T @ dense @ span.basis
    assert np.linalg.norm(span.operator(alphas) - want) <= 1e-12 * np.linalg.norm(want)


@_properties
@given(seed=_seeds, n=_dims)
def test_zero_weights_reproduce_high_fidelity_pod(seed, n):
    rng = np.random.default_rng(seed)
    sets, metric = _three_levels(rng, n)
    mf = mfpod_fixed(sets, (0.0, 0.0), _KAPPA, metric)
    hf = pod(sets[0].shared, metric)
    assert mf.mode_count == hf.basis.dim == _COUNTS[0]
    assert mf.selected_dim == select_dim(hf.eigvals, _KAPPA)
    top = hf.eigvals[0]
    np.testing.assert_allclose(mf.corrected_eigvals, hf.eigvals[:mf.mode_count], rtol=0,
                               atol=1e-12 * top)


@_properties
@given(seed=_seeds, n=_dims, order=st.permutations(range(_COUNTS[-1] - _COUNTS[1])))
def test_the_order_of_the_lowest_level_extra_columns_does_not_matter(seed, n, order):
    rng = np.random.default_rng(seed)
    sets, metric = _three_levels(rng, n)
    alphas = _alphas(rng)
    low = sets[2]
    ids = low.sample_ids[:_COUNTS[1]] + tuple(low.sample_ids[_COUNTS[1] + j] for j in order)
    shuffled = sets[:2] + (SnapshotSet(2, low.shared, low.extra[:, list(order)], ids,
                                       low.cost_per_sample),)
    got = mfpod_fixed(shuffled, alphas, _KAPPA, metric)
    want = mfpod_fixed(sets, alphas, _KAPPA, metric)
    assert (got.mode_count, got.selected_dim) == (want.mode_count, want.selected_dim)
    top = want.corrected_eigvals[0]
    np.testing.assert_allclose(got.raw_eigvals, want.raw_eigvals, rtol=0, atol=1e-12 * top)
    np.testing.assert_allclose(got.corrected_eigvals, want.corrected_eigvals, rtol=0,
                               atol=1e-12 * top)


@_properties
@given(seed=_seeds, n=_dims, dim=st.integers(0, 2))
def test_optimal_weights_are_each_level_two_pass_covariance_over_variance(seed, n, dim):
    rng = np.random.default_rng(seed)
    sets, metric = _three_levels(rng, n)
    basis = (orthonormalize(rng.standard_normal((n, dim)), metric) if dim
             else Basis.empty(metric))

    def energies(cols):  # residual energies of the shared draws, outside the basis
        resid = cols - basis.vectors @ (basis.vectors.T @ metric.apply(cols))
        return metric.norms_sq(resid)

    x = [energies(s.shared[:, :_COUNTS[0]]) for s in sets]
    want = [np.cov(x[0], x[ell], ddof=1)[0, 1] / np.var(x[ell], ddof=1) for ell in (1, 2)]
    np.testing.assert_allclose(optimal_alpha(estimate_profile(basis, sets)), want, rtol=1e-12)
