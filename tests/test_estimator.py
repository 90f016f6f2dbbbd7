import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpod import (
    AdvDiffConfig,
    Allocation,
    Basis,
    Metric,
    VarianceProfile,
    estimate_profile,
    j_mf,
    make_model_pair,
    mf_mse,
    min_mse,
    optimal_alpha,
    orthonormalize,
    pod,
    usefulness,
)
from mfpod.core import SnapshotSet
from mfpod.mfpod import SnapshotSpan, _lift

from conftest import (
    banded_metric,
    column_energies,
    column_j_mf,
    column_profile,
    leading,
    mc_projection_error,
    random_instance,
    random_spd_metric,
)


def _alloc(m0, m1, alpha, c1=0.125):
    return Allocation((m0, m1), (alpha,), (1.0, c1))


def test_j_mf_of_one_level_is_the_monte_carlo_projection_error():
    # with no lower level J_mf is the plain Monte Carlo estimate J_MC
    rng = np.random.default_rng(0)
    metric = random_spd_metric(rng, 12)
    s = rng.standard_normal((12, 6))
    level = (SnapshotSet(0, s, np.zeros((12, 0)), range(6), 1.0),)
    alloc = Allocation((6,), (), (1.0,))
    basis = orthonormalize(rng.standard_normal((12, 3)), metric)
    resid = s - basis.vectors @ (basis.vectors.T @ metric.apply(s))
    assert j_mf(basis, level, alloc) == pytest.approx(metric.norms_sq(resid).mean(), rel=1e-12)
    full = orthonormalize(rng.standard_normal((12, 12)), metric)
    assert j_mf(full, level, alloc) <= 1e-12 * metric.norms_sq(s).max()
    empty = Basis(np.zeros((12, 0)), metric)
    assert j_mf(empty, level, alloc) == pytest.approx(metric.norms_sq(s).mean(), rel=1e-12)


def test_j_mf_alpha_zero_collapses_to_mc():
    rng = np.random.default_rng(1)
    metric = random_spd_metric(rng, 10)
    sets = random_instance(rng, 10, 3, 7, metric)
    basis = orthonormalize(rng.standard_normal((10, 2)), metric)
    lhs = j_mf(basis, sets, _alloc(3, 7, 0.0))
    assert lhs == pytest.approx(mc_projection_error(basis, sets[0].shared), rel=1e-14)


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
    assert lhs == pytest.approx(mc_projection_error(basis, u), rel=1e-12)


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
    # a span in another metric would read the basis in the wrong geometry
    with pytest.raises(ValueError, match="share one metric"):
        j_mf(basis, SnapshotSpan.from_sets(sets, Metric.euclidean(8)), _alloc(2, 5, 1.0))


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


@st.composite
def _profile_and_allocation(draw):
    """A VarianceProfile with L = 1..3 lower levels, some of them with zero
    variance, and an allocation with arbitrary weights for it."""
    levels = draw(st.integers(1, 3))
    sigma2 = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                           min_size=levels + 1, max_size=levels + 1))
    # correlations and weights of 0 or at least 1e-6 in size, so that no
    # scaled moment or MSE term is subnormal
    signed = st.one_of(st.just(0.0), st.floats(-1.0, -1e-6), st.floats(1e-6, 1.0))
    rho = draw(st.lists(signed, min_size=levels, max_size=levels))
    cov0 = [r * np.sqrt(sigma2[0] * s2) for r, s2 in zip(rho, sigma2[1:])]
    counts = np.cumsum(draw(st.lists(st.integers(1, 300), min_size=levels + 1,
                                     max_size=levels + 1)))
    alphas = draw(st.lists(signed, min_size=levels, max_size=levels))
    alloc = Allocation(tuple(counts), tuple(3.0 * a for a in alphas), (1.0,) + (0.1,) * levels)
    return VarianceProfile(sigma2, cov0, int(counts[0])), alloc


def _mse_size(prof, alloc):
    """sigma_0^2 / m_0 plus the magnitudes of mf_mse's level terms at alloc's
    weights and at the optimal ones: the scale of the roundoff in either MSE."""
    m = alloc.counts
    out = prof.sigma2[0] / m[0]
    for a_opt, a, s2, c, m_prev, m_ell in zip(optimal_alpha(prof), alloc.alphas, prof.sigma2[1:],
                                              prof.cov0, m, m[1:]):
        for w in (a, a_opt):
            out += (1.0 / m_prev - 1.0 / m_ell) * (w * w * s2 + 2.0 * abs(w * c))
    return out


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_profile_and_allocation(), log_s=st.floats(-12.0, 12.0), m_mc=st.integers(1, 2000))
def test_estimator_quantities_do_not_depend_on_the_units(case, log_s, m_mc):
    # scaling the snapshots scales every second moment by one factor s: both
    # MSEs scale by s, and the weights and the usefulness verdict stay
    prof, alloc = case
    s = 10.0 ** log_s
    scaled = VarianceProfile(prof.sigma2 * s, prof.cov0 * s, prof.sample_count)
    tol = 1e-12 * s * _mse_size(prof, alloc)
    assert abs(mf_mse(scaled, alloc) - s * mf_mse(prof, alloc)) <= tol
    assert abs(min_mse(scaled, alloc) - s * min_mse(prof, alloc)) <= tol
    np.testing.assert_allclose(optimal_alpha(scaled), optimal_alpha(prof), rtol=1e-12, atol=0)
    assert usefulness(scaled, alloc, m_mc) == usefulness(prof, alloc, m_mc)


def test_usefulness_of_a_correlated_surrogate_at_three_units():
    # rho = 0.9, m = (2, 248): the optimal MSE 0.0098 s beats the 0.02 s of
    # five plain samples in every unit s
    for s in (1e-3, 1.0, 1e4):
        prof = VarianceProfile((0.1 * s, 0.1 * s), (0.09 * s,), 2)
        assert min_mse(prof, _alloc(2, 248, 0.0)) == pytest.approx(0.0098266 * s, rel=1e-5)
        assert usefulness(prof, _alloc(2, 248, 0.0), m_mc=5) is True


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=_profile_and_allocation(), m_mc=st.integers(1, 2000))
def test_usefulness_compares_the_optimal_mse_with_plain_monte_carlo(case, m_mc):
    prof, alloc = case
    assert usefulness(prof, alloc, m_mc) == (min_mse(prof, alloc) < prof.sigma2[0] / m_mc)


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
        Allocation((2, 4), (1.0,), (1.0, 0.0))  # costs stay validated


def _hierarchy(rng, n: int, kind: str, scale: float, metric: Metric) -> tuple:
    """Correlated levels on shared draws: two, three, or two with the
    surrogate in the coefficients of a random (n, n // 2) lift in metric."""
    if kind == "lifted":
        lift = rng.standard_normal((n, n // 2))
        coeffs = rng.standard_normal((n // 2, 12)) * scale
        hf = lift @ coeffs[:, :4] + 0.1 * scale * rng.standard_normal((n, 4))
        return SnapshotSet.two_level(hf, coeffs, 1.0, 0.125, _lift(lift, metric))
    counts = (4, 12) if kind == "two" else (3, 7, 16)
    base = rng.standard_normal((n, counts[-1])) * scale
    ids, sets = tuple(range(counts[-1])), []
    for ell, m in enumerate(counts):
        u = base[:, :m] + 0.1 * (ell + 1) * scale * rng.standard_normal((n, m))
        shared = counts[ell - 1] if ell else m
        sets.append(SnapshotSet(ell, u[:, :shared], u[:, shared:], ids[:m], 0.25 ** ell))
    return tuple(sets)


def _check_span_route(sets, basis, alphas):
    """The span's residual energies, j_mf (on the sets and on their span) and
    estimate_profile match the column oracles within 1e-10 relative to the
    snapshots' squared norms (their squares for the profile's moments)."""
    span = SnapshotSpan.from_sets(sets, basis.metric)
    energies = span.residual_energies(basis)
    assert len(energies) == len(sets)
    scale = max(float(basis.metric.norms_sq(s.columns).max()) for s in sets)
    for level, got in zip(sets, energies):
        np.testing.assert_allclose(got, column_energies(basis, level.columns), rtol=0,
                                   atol=1e-10 * scale)
    alloc = Allocation([s.count for s in sets], alphas, [s.cost_per_sample for s in sets])
    want = column_j_mf(basis, sets, alloc)
    tol = 1e-10 * scale * (1 + 2 * sum(abs(a) for a in alphas))
    assert abs(j_mf(basis, sets, alloc) - want) <= tol
    assert abs(j_mf(basis, span, alloc) - want) <= tol
    want = column_profile(basis, sets)
    for got in (estimate_profile(basis, sets), estimate_profile(basis, span)):
        np.testing.assert_allclose(got.sigma2, want.sigma2, rtol=1e-10, atol=1e-10 * scale**2)
        np.testing.assert_allclose(got.cov0, want.cov0, rtol=1e-10, atol=1e-10 * scale**2)
        assert got.sample_count == want.sample_count


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 40),
       kind=st.sampled_from(["two", "three", "lifted"]), bandwidth=st.integers(0, 3),
       candidate=st.sampled_from(["inside", "partly", "random"]), dim=st.integers(0, 5),
       log_scale=st.floats(-6, 6))
def test_span_route_matches_the_column_oracle(seed, n, kind, bandwidth, candidate, dim,
                                              log_scale):
    # the span reads a snapshot by its coordinates on Q and a candidate V by
    # its coordinates on Q plus its part outside the span; together they must
    # give the n-dimensional columns' residual energies at any V and any units
    rng = np.random.default_rng(seed)
    metric = Metric.euclidean(n) if bandwidth == 0 else banded_metric(rng, n, bandwidth)
    sets = _hierarchy(rng, n, kind, 10.0 ** log_scale, metric)
    q = SnapshotSpan.from_sets(sets, metric).basis
    inside = metric.from_coords(q @ np.linalg.qr(rng.standard_normal((q.shape[1], dim)))[0])
    if candidate == "inside":
        basis = Basis(inside[:, :dim], metric)
    elif candidate == "partly":
        basis = orthonormalize(inside + 0.1 * rng.standard_normal(inside.shape), metric)
    else:
        basis = orthonormalize(rng.standard_normal((n, dim)), metric)
    _check_span_route(sets, basis, tuple(rng.uniform(-2.0, 2.0, len(sets) - 1)))


def test_span_route_matches_the_column_oracle_on_model_draws():
    # n = 4097, the surrogate dense and lifted; the candidates are the empty
    # basis, directions inside the span, and the leading POD modes of other
    # high-fidelity draws, which lie outside it
    pair = make_model_pair(AdvDiffConfig())
    metric, thetas = pair.metric, pair.sampler(40, 3)
    hf = pair.high(thetas[:4])
    dense = SnapshotSet.two_level(hf, pair.low(thetas), pair.costs.high, pair.costs.low)
    lifted = SnapshotSet.two_level(hf, pair.coarse(thetas), pair.costs.high, pair.costs.low,
                                   pair.lift)
    rng = np.random.default_rng(0)
    q = SnapshotSpan.from_sets(dense, metric).basis
    inside = Basis(metric.from_coords(q @ np.linalg.qr(rng.standard_normal((q.shape[1], 3)))[0]),
                   metric)
    outside = leading(pod(pair.high(pair.sampler(12, 4)), metric).basis, 5)
    for sets in (dense, lifted):
        for basis in (Basis.empty(metric), inside, outside):
            _check_span_route(sets, basis, (0.9,))
