import numpy as np
import pytest
import scipy.linalg

from mfpod import (
    AdvDiffConfig,
    Metric,
    ModelCosts,
    equispaced_parameters,
    fine_metric,
    make_model_pair,
    mass_matrix,
    prolong,
    sample_parameters,
    snapshot,
    solve_adv_diff,
)


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


def test_sample_parameters_mean():
    draws = sample_parameters(100_000, 3, (1.0, 100.0))
    assert abs(draws.mean() - 50.5) < 0.3


def test_equispaced_parameters():
    pts = equispaced_parameters(5, (1.0, 100.0))
    np.testing.assert_allclose(pts, [1.0, 25.75, 50.5, 75.25, 100.0])


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


def test_tridiagonal_solve_failures_raise(monkeypatch):
    cfg = AdvDiffConfig(n_hf=65, n_lf=33)
    with pytest.raises(ValueError, match="too small"):
        solve_adv_diff(1e-310, 65, cfg)  # the stencil overflows

    def failing(dl, d, du, b, *overwrite):
        return np.zeros_like(dl), d, du, np.zeros_like(b), 5

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", failing)
    with pytest.raises(ValueError, match="LAPACK info 5"):
        solve_adv_diff(10.0, 65, cfg)


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
    assert pair.costs.low == pytest.approx(33.0 / 129.0)
    assert pair.metric.n == 129


def test_invalid_theta_rejected():
    cfg = AdvDiffConfig(n_hf=65, n_lf=33)
    with pytest.raises(ValueError):
        solve_adv_diff(-1.0, 65, cfg)
    with pytest.raises(ValueError):
        solve_adv_diff(np.nan, 65, cfg)
