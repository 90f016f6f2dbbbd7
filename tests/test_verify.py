import contextlib
import multiprocessing
import os
import time
from unittest import mock

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
    SnapshotSet,
    convergence_study,
    eigenvalue_sum_mse,
    make_model_pair,
    orthonormalize,
    reference_matrix,
    sample_parameters,
    subspace_alignment,
)
import mfpod.experiment as experiment
import mfpod.verify as verify
from mfpod.mfpod import build_operator
from mfpod.models import _child_seed, _draw, _solve_each
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


def test_grid_draws_have_the_bits_of_each_draw_built_alone():
    # a draw's columns come back side by side and are split for its operator
    pair = make_model_pair(_FORK_MODEL)
    with contextlib.closing(_grid_draws(pair, 4, (2, 8), 30, 5, 1.0)[1]) as points:
        for m0, ops in points:
            for rep, op in enumerate(ops):
                _, hf, lf = _draw(pair, m0, 4 * m0, _child_seed(5, m0, rep))
                sets = SnapshotSet.two_level(hf, lf, pair.costs.high, pair.costs.low)
                alone = build_operator(sets, (1.0,), pair.metric).assemble_transformed()
                assert np.array_equal(op, alone)


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


def _reject_broken_reference(case, monkeypatch):
    pair = _small_pair()
    reference, message = _broken_references(pair.metric.n)[case]

    def no_draw(*args):
        raise AssertionError("a draw was assembled before the reference was checked")

    monkeypatch.setattr(verify, "build_operator", no_draw)
    with pytest.raises(ValueError, match=message):
        convergence_study(pair, 4, (2, 4), 30, 0, reference=reference)
    with pytest.raises(ValueError, match=message):
        eigenvalue_sum_mse(pair, 3, (2, 4), 30, 0, gamma_hat=1.0, reference=reference)


@pytest.mark.parametrize("case", ["nan", "asymmetric", "missized"])
def test_studies_reject_a_broken_reference_before_any_draw(case, monkeypatch):
    _reject_broken_reference(case, monkeypatch)


@pytest.mark.parametrize("case", ["nan", "asymmetric", "missized"])
def test_forked_studies_reject_a_broken_reference_before_any_producer(forked, case, monkeypatch):
    _reject_broken_reference(case, monkeypatch)
    assert forked == [] and multiprocessing.active_children() == []


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


# The forked solve stream (experiment._solve_stream) against the serial loop,
# at the verify benchmark's model, grid and timing repeats.
_FORK_MODEL = AdvDiffConfig(n_hf=129, n_lf=17)
_FORK_GRID = (2, 4, 8, 16, 32)


def _serial(fn, *args, **kwargs):
    with mock.patch.object(experiment, "_FORK_BREAK_EVEN", float("inf")):
        return fn(*args, **kwargs)


def test_reference_matrix_has_the_bits_of_whole_chunk_solves():
    # the items refilled into chunks sum as chunks solved whole, the last one partial
    pair, size = make_model_pair(_FORK_MODEL), 2 * _CHUNK + 17
    n, thetas = pair.metric.n, pair.sampler(size, 9)
    second = np.zeros((n, n))
    for start in range(0, size, _CHUNK):
        t = pair.metric.to_coords(_solve_each(pair.high, thetas[start:start + _CHUNK], n))
        second += t @ t.T
    assert np.array_equal(_serial(reference_matrix, pair, size, 9), second / size)


@pytest.mark.parametrize("size", [400, 2 * _CHUNK + 17, 10_000])
def test_forked_reference_matrix_has_the_serial_bits(forked, size):
    # a partial last item in a full and in a partial last chunk, and more items than ring slots
    pair = make_model_pair(_FORK_MODEL)
    serial = _serial(reference_matrix, pair, size, 9)
    assert np.array_equal(reference_matrix(pair, size, 9), serial)
    assert len(forked) == 1 and forked[0].closed


def test_bench_test_shapes_stay_serial_and_the_benchmark_shapes_fork(monkeypatch):
    # bench/test_bench.py counts the solves of its shapes in this process
    priced = []
    monkeypatch.setattr(experiment, "_forks", lambda seconds: priced.append(seconds) or False)
    for pair, size, grid in ((_small_pair(), 400, (2, 4)),
                             (make_model_pair(_FORK_MODEL), 10_000, _FORK_GRID)):
        reference = reference_matrix(pair, size, 3)
        conv = convergence_study(pair, 4, grid, 30, 3, reference=reference)
        eigenvalue_sum_mse(pair, 3, grid, 30, 3, gamma_hat=conv.gamma_hat, reference=reference)
    assert len(priced) == 6
    assert max(priced[:3]) < experiment._FORK_BREAK_EVEN <= min(priced[3:])


def _studies(pair, reference, seed=7, repeats=30):
    conv = convergence_study(pair, 4, _FORK_GRID, repeats, seed, reference=reference)
    eig = eigenvalue_sum_mse(pair, 3, _FORK_GRID, repeats, seed, gamma_hat=conv.gamma_hat,
                             reference=reference)
    return repr((conv, eig))


def test_forked_studies_have_the_serial_repr(forked):
    pair = make_model_pair(_FORK_MODEL)
    reference = _serial(reference_matrix, pair, 2000, 7)
    assert _studies(pair, reference) == _serial(_studies, pair, reference)
    assert len(forked) == 2 and all(ring.closed for ring in forked)
    assert multiprocessing.active_children() == []


def _failing_draws(*indices, log=None, seed=3, repeats=30, grid=(2, 4)):
    """verify._draw that raises at the given draw indices of a study's
    (m0, repeat) order, and the list of those it raised at in this process;
    a forked process appends a line to log for each of its raises."""
    keys = [(m0, rep) for m0 in grid for rep in range(repeats)]
    bad = {_child_seed(seed, *keys[i]) for i in indices}
    draw, parent, raised = verify._draw, os.getpid(), []

    def failing(pair, m0, m1, child_seed):
        if child_seed in bad:
            if os.getpid() == parent:
                raised.append(child_seed)
            elif log is not None:
                with open(log, "a") as out:  # appends under O_APPEND land whole
                    out.write(f"{child_seed}\n")
            raise ValueError(f"no draw at seed {child_seed}")
        return draw(pair, m0, m1, child_seed)

    return failing, raised


def _slow(fn, in_parent, delay):
    """fn that first sleeps delay seconds in this process (in_parent) or in a forked one."""
    parent = os.getpid()

    def slow(*args, **kwargs):
        if (os.getpid() == parent) == in_parent:
            time.sleep(delay)
        return fn(*args, **kwargs)

    return slow


def _assert_serial_error(pair):
    """Run both studies on both routes and check that the forked ones raise
    the serial error and leave no producer or open ring."""
    reference = np.eye(pair.metric.n)
    for study in (lambda: convergence_study(pair, 4, (2, 4), 30, 3, reference=reference),
                  lambda: eigenvalue_sum_mse(pair, 3, (2, 4), 30, 3, gamma_hat=1.0,
                                             reference=reference)):
        with pytest.raises(ValueError) as serial:
            _serial(study)
        with pytest.raises(ValueError) as got:
            study()
        assert type(got.value) is type(serial.value) and str(got.value) == str(serial.value)
        assert multiprocessing.active_children() == []


def test_forked_studies_raise_the_producers_draw_error(forked, monkeypatch, tmp_path):
    # a slow consumer leaves the draws past its first ones to the producer
    pair, log = _small_pair(), tmp_path / "raised"
    failing, raised = _failing_draws(37, log=log)
    monkeypatch.setattr(verify, "_draw", failing)
    monkeypatch.setattr(verify, "build_operator", _slow(verify.build_operator, True, 0.005))
    _assert_serial_error(pair)
    in_producer = len(log.read_text().split()) if log.exists() else 0
    assert len(raised) - 2 + in_producer == 2  # each forked study solved draw 37 once
    assert in_producer >= 1
    assert len(forked) == 2 and all(ring.closed for ring in forked)


def test_forked_studies_raise_the_error_of_a_draw_solved_here(forked, monkeypatch):
    # a slow producer leaves at least one of two adjacent draws to this
    # process; whichever side meets which, the first failing draw's error is raised
    pair = _small_pair()
    failing, raised = _failing_draws(7, 8)
    monkeypatch.setattr(verify, "_draw", _slow(failing, False, 0.05))
    _assert_serial_error(pair)
    assert len(raised) > 2  # beyond the serial studies' two
    assert len(forked) == 2 and all(ring.closed for ring in forked)


def test_forked_draws_closed_early_end_their_producer(forked):
    # the point's draw stream outlives the closed outer stream, yet its producer is gone
    _, points = _grid_draws(make_model_pair(_FORK_MODEL), 4, _FORK_GRID, 30, 7, 1.0)
    _, ops = next(points)
    next(ops)
    assert len(multiprocessing.active_children()) == 1
    points.close()
    assert multiprocessing.active_children() == [] and forked[0].closed


def test_forked_study_that_raises_midway_leaves_no_process_or_ring(forked, monkeypatch):
    pair = make_model_pair(_FORK_MODEL)
    reference = _serial(reference_matrix, pair, 400, 7)
    build, built = verify.build_operator, []

    def failing(*args):
        built.append(None)
        if len(built) == 7:
            raise np.linalg.LinAlgError("no operator at draw 7")
        return build(*args)

    monkeypatch.setattr(verify, "build_operator", failing)
    for study in (lambda: convergence_study(pair, 4, _FORK_GRID, 30, 7, reference=reference),
                  lambda: eigenvalue_sum_mse(pair, 3, _FORK_GRID, 30, 7, gamma_hat=1.0,
                                             reference=reference)):
        built.clear()
        with pytest.raises(np.linalg.LinAlgError, match="draw 7"):
            study()
        assert multiprocessing.active_children() == []
        assert forked and all(ring.closed for ring in forked)
    assert len(forked) == 2
