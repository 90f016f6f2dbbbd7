import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfpod import (
    AdvDiffConfig,
    Metric,
    ModelCosts,
    make_model_pair,
    sample_parameters,
    snapshot,
)
import mfpod.models as models
from mfpod.core import _UsageError
from mfpod.models import fine_metric, mass_matrix, prolong, solve_adv_diff


def _analytic_boundary_layer(x, theta):
    b = -2.0 / np.expm1(theta)
    return (1.0 - b) + b * np.exp(theta * x) + x


def test_config_validation():
    with pytest.raises(ValueError):
        AdvDiffConfig(theta_range=(5.0, 2.0))
    with pytest.raises(ValueError):
        AdvDiffConfig(n_hf=100, n_lf=33)  # meshes must nest
    with pytest.raises(ValueError):
        AdvDiffConfig(advection_sign="upwind")
    cfg = AdvDiffConfig()
    assert cfg.n_hf == 4097 and cfg.n_lf == 33 and cfg.theta_range == (1.0, 100.0)


@pytest.mark.parametrize("bc", [(float("nan"), 0.0), (1.0, float("inf")), (1.0,), (1.0, 0.0, 0.0),
                                ("1", 0.0)])
def test_boundary_values_must_be_two_finite_numbers(bc):
    # a NaN boundary value once ran to "reference snapshots carry no energy"
    with pytest.raises(_UsageError, match="bc must be two finite numbers"):
        AdvDiffConfig(n_hf=129, n_lf=33, bc=bc)
    assert AdvDiffConfig(bc=(1e306, -1e306)).bc == (1e306, -1e306)


def test_default_costs():
    costs = ModelCosts()
    assert costs.high == 1.0
    assert costs.low == pytest.approx(33.0 / 4097.0)
    cfg = AdvDiffConfig(n_hf=129, n_lf=33)
    assert ModelCosts.from_config(cfg).low == pytest.approx(33.0 / 129.0)


def test_sample_parameters_deterministic_and_prefix_stable():
    assert len(sample_parameters(0, 1, (1.0, 100.0))) == 0
    a = sample_parameters(8, 42, (1.0, 100.0))
    b = sample_parameters(3, 42, (1.0, 100.0))
    np.testing.assert_array_equal(a[:3], b)
    np.testing.assert_array_equal(a, sample_parameters(8, 42, (1.0, 100.0)))
    assert ((a >= 1.0) & (a <= 100.0)).all()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**160), count=st.integers(0, 700),
       lo_exp=st.floats(-6.0, 6.0), width_exp=st.floats(-6.0, 6.0), negative=st.booleans())
def test_sample_parameters_is_numpys_pcg64_stream(seed, count, lo_exp, width_exp, negative):
    lo = (-1.0 if negative else 1.0) * 10.0**lo_exp
    hi = lo + 10.0**width_exp
    assume(lo < hi)
    draws = sample_parameters(count, seed, (lo, hi))
    assert draws.dtype == np.float64 and draws.shape == (count,)
    assert draws.tobytes() == np.random.default_rng(seed).uniform(lo, hi, count).tobytes()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**160), count=st.integers(0, 700), data=st.data())
def test_sample_parameters_prefix_stable(seed, count, data):
    draws = sample_parameters(count, seed, (1.0, 100.0))
    prefix = data.draw(st.integers(0, count))
    assert sample_parameters(prefix, seed, (1.0, 100.0)).tobytes() == draws[:prefix].tobytes()


# SeedSequence hashes the seed as 32-bit words: seeds of one to six words
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 17, np.uint64(2**63 + 5),
                                  2**96, 2**128 - 1, 2**128, 2**160])
def test_sample_parameters_seed_word_boundaries(seed):
    want = np.random.default_rng(seed).uniform(1.0, 100.0, 40)
    assert sample_parameters(40, seed, (1.0, 100.0)).tobytes() == want.tobytes()
    assert sample_parameters(7, seed, (1.0, 100.0)).tobytes() == want[:7].tobytes()


# each malformed input raises the error type a Generator built per draw raised
@pytest.mark.parametrize("count, seed, theta_range, error", [
    (1, -1, (1.0, 100.0), ValueError),
    (1, 1.5, (1.0, 100.0), TypeError),
    (-1, 0, (1.0, 100.0), ValueError),
    (1, 0, (5.0, 5.0), ValueError),
    (1, 0, (5.0, 2.0), ValueError),
    (1, 0, (np.nan, 2.0), ValueError),
    (1, 0, (-1e308, 1e308), OverflowError),
    (1, 0, (0.0, np.inf), OverflowError),
])
def test_sample_parameters_error_types_match_generator_loop(count, seed, theta_range, error):
    with pytest.raises(error):
        sample_parameters(count, seed, theta_range)


def test_sample_parameters_mean():
    draws = sample_parameters(100_000, 3, (1.0, 100.0))
    assert abs(draws.mean() - 50.5) < 0.3


def test_boundary_values_exact():
    cfg = AdvDiffConfig(n_hf=129, n_lf=33)
    for theta in (1.0, 10.0, 100.0):
        u = solve_adv_diff(theta, 129, cfg)
        assert u[0] == 1.0 and u[-1] == 0.0


def test_literal_variant_is_affine():
    cfg = AdvDiffConfig(n_hf=129, n_lf=33, advection_sign="literal")
    x = np.linspace(0, 1, 129)
    for theta in (1.0, 7.5, 100.0):
        u = solve_adv_diff(theta, 129, cfg)
        np.testing.assert_allclose(u, 1.0 - x, atol=1e-10)


def test_boundary_layer_second_order_convergence():
    cfg = AdvDiffConfig(n_hf=4097, n_lf=33)
    for theta in (5.0, 10.0, 50.0):
        errs = []
        for n in (33, 65, 129):
            u = solve_adv_diff(theta, n, cfg)
            x = np.linspace(0, 1, n)
            m = Metric.from_weight(mass_matrix(n))
            d = u - _analytic_boundary_layer(x, theta)
            errs.append(m.norm(d))
        order = np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
        assert -order == pytest.approx(2.0, abs=0.3)


def test_prolong_and_restrict():
    c = np.full(33, 2.5)
    np.testing.assert_array_equal(prolong(c, 4097), np.full(4097, 2.5))
    xs_coarse = np.linspace(0, 1, 33)
    xs_fine = np.linspace(0, 1, 129)
    np.testing.assert_allclose(prolong(xs_coarse, 129), xs_fine, atol=1e-14)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(33)
    np.testing.assert_array_equal(prolong(v, 129)[::4], v)  # nodal restriction
    with pytest.raises(ValueError):
        prolong(v, 100)


@pytest.mark.parametrize("n_hf", [97, 4097])
@pytest.mark.parametrize("m", [0, 1, 248])
def test_block_prolongation_matches_column_by_column(m, n_hf):
    rng = np.random.default_rng(m)
    k = (n_hf - 1) // 32  # the formula rounds at the coarse nodes for k = 3, not for 128
    for block in (rng.standard_normal((33, m)), np.asfortranarray(rng.standard_normal((33, m)))):
        fine = prolong(block, n_hf)
        assert fine.shape == (n_hf, m)
        for j in range(m):
            np.testing.assert_array_equal(fine[:, j], prolong(block[:, j], n_hf))
        np.testing.assert_array_equal(fine[::k], block)  # exact coarse nodal values


def _one_expression_prolong(c, n_hf):
    """Linear interpolation as a single expression over all coarse intervals."""
    n_lf, cols = c.shape[0], c.shape[1:]
    k = (n_hf - 1) // (n_lf - 1)
    s = np.arange(k).reshape((k,) + (1,) * len(cols))
    out = np.empty((n_hf,) + cols)
    out[:-1] = ((c[:-1, None] * (k - s) + c[1:, None] * s) / k).reshape((n_hf - 1,) + cols)
    out[-1] = c[-1]
    out[::k] = c
    return out


@pytest.mark.parametrize("n_lf, n_hf, m", [
    (33, 4097, None), (17, 17, 5), (17, 129, 0), (17, 129, 1), (17, 129, 8), (17, 129, 128),
    (33, 4097, 0), (33, 4097, 1), (33, 4097, 248), (33, 4097, 620), (33, 4097, 50), (17, 129, 300),
])
def test_prolong_is_bytewise_the_one_expression_formula(n_lf, n_hf, m):
    rng = np.random.default_rng(n_hf + (m or 0))
    c = rng.standard_normal((n_lf,) if m is None else (n_lf, m))
    fine = prolong(c, n_hf)
    assert fine.shape == (n_hf,) + c.shape[1:]
    assert fine.tobytes() == _one_expression_prolong(c, n_hf).tobytes()


def _interior_system(theta, n, cfg):
    """Dense interior matrix and right-hand side of the finite element
    system, assembled from the stencil (1/(theta h)) [-1 2 -1] + (b/2) [-1 0 1]
    with the Dirichlet values moved to the right."""
    b = {"boundary_layer": 1.0, "literal": -1.0}[cfg.advection_sign]
    h = 1.0 / (n - 1)
    k = n - 2
    lower, diag, upper = -1.0 / (theta * h) - b / 2, 2.0 / (theta * h), -1.0 / (theta * h) + b / 2
    a = np.zeros((k, k))
    i = np.arange(k)
    a[i, i] = diag
    a[i[1:], i[:-1]] = lower
    a[i[:-1], i[1:]] = upper
    rhs = np.full(k, h)
    rhs[0] -= lower * cfg.bc[0]
    rhs[-1] -= upper * cfg.bc[1]
    return a, rhs


@pytest.mark.parametrize("sign", ["boundary_layer", "literal"])
@pytest.mark.parametrize("n", [17, 129, 4097])
def test_tridiagonal_solve_matches_dense_solve(n, sign):
    cfg = AdvDiffConfig(advection_sign=sign)
    for theta in (1.0, 100.0) if n < 4097 else (100.0,):
        a, rhs = _interior_system(theta, n, cfg)
        u = solve_adv_diff(theta, n, cfg)
        assert (u[0], u[-1]) == cfg.bc
        x, want = u[1:-1], np.linalg.solve(a, rhs)
        # backward stable: the residual is at roundoff of the data
        resid = np.abs(a @ x - rhs).max()
        assert resid <= 1e-15 * (np.abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())
        # the interior matrix's condition number grows like n^2 (about 1e7 at
        # n = 4097), where two stable solvers still agree to about 4e-12
        tol = 1e-12 if n < 4097 else 1e-11
        assert np.linalg.norm(x - want) <= tol * np.linalg.norm(want)


@pytest.mark.parametrize("theta", [1e-310, np.float64(1e-310), np.array([5.0, 1e-310])])
def test_too_small_theta_raises_without_a_warning(theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small for a mesh of 33 nodes"):
            solve_adv_diff(theta, 33)


def test_tridiagonal_solve_failures_raise(monkeypatch):
    cfg = AdvDiffConfig(n_hf=65, n_lf=33)
    with pytest.raises(ValueError, match="too small"):
        solve_adv_diff(1e-310, 65, cfg)  # the stencil overflows

    def failing(dl, d, du, b, *overwrite):
        return np.zeros_like(dl), d, du, np.zeros_like(b), 5

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", failing)
    with pytest.raises(ValueError, match="LAPACK info 5"):
        solve_adv_diff(10.0, 65, cfg)


_EXTREME_THETAS = (1e-3, 1e4, 1.0, 100.0)


def _block_thetas(m):
    """m parameters that open with the extremes and fill up log-uniformly."""
    return np.resize(np.concatenate([_EXTREME_THETAS, np.geomspace(1e-3, 1e4, 61)]), m)


def _assert_same_block(block, columns, n, m):
    want = np.column_stack(columns) if m else np.empty((n, 0))
    assert block.shape == (n, m) and block.flags.c_contiguous
    assert block.tobytes() == want.tobytes()


@pytest.mark.parametrize("sign", ["boundary_layer", "literal"])
@pytest.mark.parametrize("n", [3, 4, 5, 17, 33, 129, 4097])
def test_block_solve_is_bitwise_column_by_column(n, sign):
    cfg = AdvDiffConfig(advection_sign=sign)
    for m in (0, 1, 2, 248):
        thetas = _block_thetas(m)
        _assert_same_block(solve_adv_diff(thetas, n, cfg),
                           [solve_adv_diff(t, n, cfg) for t in thetas], n, m)


@pytest.mark.parametrize("sign", ["boundary_layer", "literal"])
@pytest.mark.parametrize("n_hf, n_lf", [(129, 3), (129, 5), (129, 17), (4097, 33), (65, 65)])
def test_block_snapshot_is_bitwise_column_by_column(n_hf, n_lf, sign):
    cfg = AdvDiffConfig(n_hf=n_hf, n_lf=n_lf, advection_sign=sign)
    for fidelity in ("high", "low"):
        for m in (0, 1, 2, 248):
            thetas = _block_thetas(m)
            _assert_same_block(snapshot(thetas, fidelity, cfg),
                               [snapshot(t, fidelity, cfg) for t in thetas], n_hf, m)


def test_block_solve_keeps_a_non_finite_column_to_itself():
    # lower * bc overflows at theta = 1e-3 only; a NaN there must not reach
    # the other blocks through their zero couplings
    cfg = AdvDiffConfig(bc=(1e306, -1e306))
    thetas = np.array([1e4, 1e-3, 50.0])
    with np.errstate(over="ignore", invalid="ignore"):
        block = solve_adv_diff(thetas, 17, cfg)
        columns = [solve_adv_diff(t, 17, cfg) for t in thetas]
    assert not np.isfinite(columns[1]).all() and np.isfinite(columns[0]).all()
    _assert_same_block(block, columns, 17, 3)


@pytest.mark.parametrize("bad", [-1.0, np.nan, 1e-310])
def test_block_solve_raises_the_error_of_its_bad_parameter(bad):
    cfg = AdvDiffConfig(n_hf=65, n_lf=33)
    with pytest.raises(ValueError) as scalar:
        solve_adv_diff(bad, 33, cfg)
    for call in (lambda t: solve_adv_diff(t, 33, cfg), lambda t: snapshot(t, "low", cfg)):
        with pytest.raises(ValueError) as block:
            call(np.array([5.0, 7.0, bad, 9.0]))
        assert str(block.value) == str(scalar.value)
        assert str(bad) in str(block.value)


@pytest.mark.parametrize("info, column, local",
                         [(5, 0, 5), (63, 0, 63), (63 + 5, 1, 5), (3 * 63, 2, 63)])
def test_block_solve_failure_names_its_parameter_and_local_info(monkeypatch, info, column, local):
    cfg = AdvDiffConfig(n_hf=65, n_lf=33)
    thetas = np.array([3.0, 4.5, 6.25])

    def failing(dl, d, du, b, *overwrite):
        return np.zeros_like(dl), d, du, np.zeros_like(b), info

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", failing)
    with pytest.raises(ValueError, match=rf"theta={thetas[column]} \(LAPACK info {local}\)"):
        solve_adv_diff(thetas, 65, cfg)


def test_solve_rejects_a_parameter_array_of_two_dimensions():
    with pytest.raises(ValueError, match="1-D"):
        solve_adv_diff(np.ones((2, 2)), 17)


def test_snapshot_shapes_and_determinism():
    cfg = AdvDiffConfig(n_hf=129, n_lf=33)
    hi = snapshot(12.0, "high", cfg)
    lo = snapshot(12.0, "low", cfg)
    assert hi.shape == lo.shape == (129,)
    np.testing.assert_array_equal(hi, snapshot(12.0, "high", cfg))
    with pytest.raises(ValueError):
        snapshot(12.0, "medium", cfg)


def test_snapshot_high_equals_low_on_matching_meshes():
    cfg = AdvDiffConfig(n_hf=65, n_lf=65)
    np.testing.assert_array_equal(snapshot(9.0, "high", cfg), snapshot(9.0, "low", cfg))


def test_low_fidelity_close_at_small_theta():
    cfg = AdvDiffConfig()  # desk-scale meshes
    hi = snapshot(1.0, "high", cfg)
    lo = snapshot(1.0, "low", cfg)
    m = fine_metric(cfg)
    gap = m.norm(hi - lo) / m.norm(hi)
    assert gap < 0.05


def test_mass_matrix_row_sums_partition_of_unity():
    n = 51
    h = 1.0 / (n - 1)
    w = np.asarray(mass_matrix(n).todense())
    sums = w.sum(axis=1)
    np.testing.assert_allclose(sums[1:-1], h, rtol=1e-12)
    np.testing.assert_allclose(sums[[0, -1]], h / 2, rtol=1e-12)


def test_model_pair_wiring():
    cfg = AdvDiffConfig(n_hf=129, n_lf=33)
    pair = make_model_pair(cfg)
    thetas = pair.sampler(3, 0)
    assert len(thetas) == 3
    u = pair.high(thetas[0])
    v = pair.low(thetas[0])
    assert u.shape == v.shape == (129,)
    assert pair.high(thetas).shape == pair.low(thetas).shape == (129, 3)
    np.testing.assert_array_equal(pair.low(thetas)[:, 0], v)
    assert pair.costs.low == pytest.approx(33.0 / 129.0)
    assert pair.metric.n == 129


@pytest.mark.parametrize("m0, m1", [(0, 6), (4, 0), (3, 7), (0, 0)])
def test_draw_solves_high_fidelity_per_parameter_and_the_surrogate_as_one_block(m0, m1):
    cfg = AdvDiffConfig(n_hf=65, n_lf=17)
    calls = []

    def solver(fidelity):
        def solve(theta):
            calls.append((fidelity, np.ndim(theta)))
            return snapshot(theta, fidelity, cfg)
        return solve

    pair = models.ModelPair(high=solver("high"), low=solver("low"), metric=fine_metric(cfg),
                            sampler=lambda count, seed: sample_parameters(count, seed, (1.0, 100.0)))
    thetas, hf, lf = models._draw(pair, m0, m1, 9)
    assert calls == [("high", 0)] * m0 + [("low", 1)]
    assert thetas.tobytes() == sample_parameters(max(m0, m1), 9, (1.0, 100.0)).tobytes()
    assert hf.shape == (65, m0) and lf.shape == (65, m1)
    assert hf.flags.c_contiguous and lf.flags.c_contiguous
    for block, fidelity in ((hf, "high"), (lf, "low")):
        for j in range(block.shape[1]):
            assert block[:, j].tobytes() == snapshot(thetas[j], fidelity, cfg).tobytes()


def test_invalid_theta_rejected():
    cfg = AdvDiffConfig(n_hf=65, n_lf=33)
    with pytest.raises(ValueError):
        solve_adv_diff(-1.0, 65, cfg)
    with pytest.raises(ValueError):
        solve_adv_diff(np.nan, 65, cfg)
