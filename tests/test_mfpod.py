import dataclasses
import importlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpod import (
    AdvDiffConfig,
    Allocation,
    Basis,
    Metric,
    SnapshotSet,
    j_mf,
    make_model_pair,
    mfpod_adaptive,
    mfpod_fixed,
    orthonormalize,
    pod,
    sample_parameters,
    select_dim,
    snapshot,
    subspace_alignment,
)
import mfpod.mfpod as mfpod_module
from mfpod.mfpod import _SPAN_BLOCK, SnapshotSpan, build_operator
from mfpod.models import fine_metric

from conftest import (assemble_mf_matrix, dense_mf_oracle, leading, random_instance,
                      random_spd_metric, transformed_mf_matrix)


def _alloc(sets, alpha):
    return Allocation((sets[0].count, sets[1].count), (alpha,),
                      (sets[0].cost_per_sample, sets[1].cost_per_sample))


def _action(op, x):
    """C_mf x through the metric-coordinate matrix: F^-T A F^T x."""
    metric = op.metric
    return metric.from_coords(op.assemble_transformed() @ metric.to_coords(x))


def test_operator_action_matches_explicit_matrix():
    rng = np.random.default_rng(0)
    for metric in (Metric.euclidean(12), random_spd_metric(rng, 12)):
        sets = random_instance(rng, 12, 2, 6, metric)
        alpha = 0.8
        op = build_operator(sets, (alpha,), metric)
        w = metric.weight if metric.weight is not None else np.eye(12)
        explicit = assemble_mf_matrix(sets, alpha) @ np.asarray(w)
        for _ in range(50):
            x = rng.standard_normal(12)
            np.testing.assert_allclose(_action(op, x), explicit @ x,
                                       atol=1e-12 * np.abs(explicit).max())
        # the span operator is the same matrix restricted to the snapshot span
        span = SnapshotSpan.from_sets(sets, metric)
        a = op.assemble_transformed()
        q = span.basis
        np.testing.assert_allclose(span.operator((alpha,)), q.T @ a @ q,
                                   atol=1e-12 * np.abs(a).max())
        np.testing.assert_allclose(q @ (q.T @ a @ q) @ q.T, a, atol=1e-12 * np.abs(a).max())


def test_operator_self_adjoint_under_metric():
    rng = np.random.default_rng(1)
    metric = random_spd_metric(rng, 10)
    sets = random_instance(rng, 10, 3, 7, metric)
    op = build_operator(sets, (0.6,), metric)
    for _ in range(20):
        u, v = rng.standard_normal(10), rng.standard_normal(10)
        lhs = metric.inner(_action(op, u), v)
        rhs = metric.inner(u, _action(op, v))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_operator_reductions():
    rng = np.random.default_rng(2)
    metric = Metric.euclidean(9)
    sets = random_instance(rng, 9, 2, 6, metric)
    s0 = sets[0].shared
    zero_alpha = build_operator(sets, (0.0,), metric)
    np.testing.assert_allclose(zero_alpha.assemble_transformed(), s0 @ s0.T / 2, atol=1e-13)
    # identical levels with alpha=1 telescope to the m_1-sample Gramian
    u = rng.standard_normal((9, 6))
    ids = tuple(range(6))
    same = (
        SnapshotSet(0, u[:, :2], np.zeros((9, 0)), ids[:2], 1.0),
        SnapshotSet(1, u[:, :2], u[:, 2:], ids, 0.25),
    )
    op = build_operator(same, (1.0,), metric)
    np.testing.assert_allclose(op.assemble_transformed(), u @ u.T / 6, atol=1e-13)


def test_mfpod_fixed_matches_dense_pipeline_oracle():
    rng = np.random.default_rng(3)
    metric = random_spd_metric(rng, 30)
    sets = random_instance(rng, 30, 3, 9, metric)
    alpha = 0.9
    mf = mfpod_fixed(sets, (alpha,), kappa=0.999, metric=metric)
    vals, vecs = dense_mf_oracle(sets, alpha, metric)
    order = np.argsort(-mf.raw_eigvals, kind="stable")
    np.testing.assert_allclose(mf.raw_eigvals[order], vals, rtol=1e-9)
    for j in range(len(vals)):
        a = Basis(mf.vectors[:, order[: j + 1]], metric)
        b = orthonormalize(vecs[:, : j + 1], metric)
        gap = vals[j] - (vals[j + 1] if j + 1 < len(vals) else 0.0)
        if gap > 1e-6 * np.abs(vals).max():
            assert subspace_alignment(a, b) < 1e-8


def test_correct_eigenvalue_branches():
    # alpha=5 makes the correction term dominate, so some raw values are negative
    rng = np.random.default_rng(10)
    for metric in (Metric.euclidean(12), random_spd_metric(rng, 12)):
        sets = random_instance(rng, 12, 2, 6, metric)
        mf = mfpod_fixed(sets, (5.0,), kappa=0.99, metric=metric)
        repaired = mf.raw_eigvals <= 0
        assert repaired.any()
        assert mf.correction_count == int(repaired.sum())
        s0 = sets[0].shared
        for j in range(mf.mode_count):
            if repaired[j]:
                v = mf.vectors[:, j]
                energy = np.mean([metric.inner(s0[:, i], v) ** 2 for i in range(s0.shape[1])])
                assert mf.corrected_eigvals[j] == pytest.approx(energy, rel=1e-10)
            else:
                assert mf.corrected_eigvals[j] == mf.raw_eigvals[j]


def test_alpha_zero_reduces_to_hf_pod():
    rng = np.random.default_rng(5)
    metric = random_spd_metric(rng, 16)
    sets = random_instance(rng, 16, 4, 10, metric)
    mf = mfpod_fixed(sets, (0.0,), kappa=0.999999, metric=metric)
    ref = pod(sets[0].shared, metric)
    k = ref.basis.dim
    np.testing.assert_allclose(np.sort(mf.raw_eigvals)[::-1], ref.eigvals[:k], rtol=1e-9)
    assert subspace_alignment(Basis(mf.vectors, metric), ref.basis) < 1e-8


def test_kappa_near_one_selects_all_positive_modes():
    rng = np.random.default_rng(6)
    metric = Metric.euclidean(20)
    sets = random_instance(rng, 20, 3, 8, metric)
    mf = mfpod_fixed(sets, (0.8,), kappa=1 - 1e-15, metric=metric)
    assert mf.selected_dim == np.count_nonzero(mf.corrected_eigvals > 0)


def test_corrected_values_nonnegative_and_sorted():
    rng = np.random.default_rng(7)
    metric = random_spd_metric(rng, 15)
    sets = random_instance(rng, 15, 2, 7, metric)
    mf = mfpod_fixed(sets, (1.2,), kappa=0.99, metric=metric)
    assert (mf.corrected_eigvals >= 0).all()
    assert (np.diff(mf.corrected_eigvals) <= 1e-12 * mf.corrected_eigvals[0]).all()
    assert 0 < mf.energy_fraction <= 1.0


def test_spectral_identity_and_minimizer():
    rng = np.random.default_rng(8)
    metric = random_spd_metric(rng, 18)
    sets = random_instance(rng, 18, 3, 9, metric)
    alpha = 0.85
    mf = mfpod_fixed(sets, (alpha,), kappa=0.999, metric=metric)
    alloc = _alloc(sets, alpha)
    scale = np.abs(mf.raw_eigvals).sum()
    signed = np.argsort(-mf.raw_eigvals, kind="stable")
    r = 4
    top = Basis(mf.vectors[:, signed[:r]], metric)
    j_top = j_mf(top, sets, alloc)
    for _ in range(100):
        cand = orthonormalize(rng.standard_normal((18, r)), metric)
        lhs = j_mf(cand, sets, alloc)
        proj = mf.vectors.T @ metric.apply(cand.vectors)
        captured = np.einsum("jk,jk->j", proj, proj)
        rhs = float(np.sum(mf.raw_eigvals * (1.0 - captured)))
        assert lhs == pytest.approx(rhs, abs=1e-10 * scale)
        assert j_top <= lhs + 1e-10 * scale


def test_mfpod_fixed_refuses_a_span_in_another_metric():
    rng = np.random.default_rng(10)
    metric = random_spd_metric(rng, 12)
    span = SnapshotSpan.from_sets(random_instance(rng, 12, 3, 8, metric), metric)
    with pytest.raises(ValueError, match="share one metric"):
        mfpod_fixed(span, (0.9,), 0.99, Metric.euclidean(12))
    assert mfpod_fixed(span, (0.9,), 0.99, metric).metric is metric


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30),
       case=st.sampled_from(["two-level", "three-level"]), weighted=st.booleans(),
       kappa=st.floats(0.5, 1.0), zero=st.booleans())
def test_mf_basis_derives_its_vectors_dim_and_energy_from_its_coordinates(seed, n, case, weighted,
                                                                         kappa, zero):
    rng = np.random.default_rng(seed)
    metric = random_spd_metric(rng, n) if weighted else Metric.euclidean(n)
    sets, alphas, _ = _oracle_case(case, rng, n, metric)
    if zero:
        sets = tuple(dataclasses.replace(s, shared=0 * s.shared, extra=0 * s.extra) for s in sets)
    fits = [mfpod_fixed(sets, alphas, kappa, metric)]
    if case == "two-level":
        fits.append(mfpod_adaptive(sets, kappa, metric)[0])
    for mf in fits:
        assert mf.vectors.shape == mf.coords.shape == (n, mf.mode_count)
        assert mf.vectors.tobytes() == metric.from_coords(mf.coords).tobytes()
        assert mf.full_basis.orthonormality_defect() <= 1e-9
        r = select_dim(mf.corrected_eigvals, kappa)
        assert mf.selected_dim == r
        assert mf.basis.dim == r and mf.basis.metric is metric
        assert mf.basis.vectors.tobytes() == mf.full_basis.vectors[:, :r].tobytes()
        if zero:
            assert (mf.mode_count, r, mf.energy_fraction) == (0, 0, 0.0)
        else:
            cum = np.cumsum(mf.corrected_eigvals)
            assert r >= 1 and mf.energy_fraction == float(cum[r - 1] / cum[-1])


def test_zero_snapshots_give_empty_basis():
    metric = Metric.euclidean(6)
    ids = (0, 1, 2, 3)
    sets = (
        SnapshotSet(0, np.zeros((6, 2)), np.zeros((6, 0)), ids[:2], 1.0),
        SnapshotSet(1, np.zeros((6, 2)), np.zeros((6, 2)), ids, 0.5),
    )
    mf = mfpod_fixed(sets, (1.0,), kappa=0.9, metric=metric)
    assert (mf.mode_count, mf.selected_dim, mf.correction_count) == (0, 0, 0)
    mf, trace = mfpod_adaptive(sets, kappa=0.9, metric=metric)
    assert (mf.mode_count, trace.termination) == (0, "residual")


def test_correction_counters_on_negative_spectrum():
    # strongly negative correction term forces corrected modes
    rng = np.random.default_rng(10)
    metric = Metric.euclidean(12)
    sets = random_instance(rng, 12, 2, 6, metric)
    mf = mfpod_fixed(sets, (5.0,), kappa=0.99, metric=metric)
    assert (mf.raw_eigvals < 0).any()
    assert mf.correction_count >= 1
    assert (mf.corrected_eigvals >= 0).all()


def _two_branch_kept(raw, plus):
    """The column order _finalize_basis keeps, by the rule with its own
    branches for an empty and for an all-zero corrected spectrum."""
    if len(plus) == 0:
        return []
    order = np.lexsort((-raw, -plus))
    top = plus[order[0]]
    if top <= 0:
        return []
    return [int(j) for j in order if plus[j] > 1e-10 * top]


_FINALIZE_SPAN = SnapshotSpan.from_sets(
    random_instance(np.random.default_rng(11), 12, 3, 8, Metric.euclidean(12)),
    Metric.euclidean(12))
# ties, zeros and values on and beside the 1e-10 floor of a top value of 1
_EIGVAL = st.sampled_from([0.0, 1e-10, 1e-10 * (1 + 2**-40), 0.5, 1.0]) | st.floats(0.0, 2.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), k=st.integers(0, _FINALIZE_SPAN.rank))
def test_finalize_keeps_what_the_two_branch_rule_keeps(data, k):
    plus = np.array(data.draw(st.lists(_EIGVAL, min_size=k, max_size=k)))
    raw = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]) | _EIGVAL,
                                      min_size=k, max_size=k)))
    y = np.eye(_FINALIZE_SPAN.rank)[:, :k]  # column j of y is the one-hot of input j
    mf = mfpod_module._finalize_basis(_FINALIZE_SPAN, raw, plus, y, 0.9)
    kept = _two_branch_kept(raw, plus)
    assert [int(j) for j in mf._y.argmax(axis=0)] == kept
    assert mf.raw_eigvals.tolist() == raw[kept].tolist()
    assert mf.corrected_eigvals.tolist() == plus[kept].tolist()
    assert (mf.mode_count, mf.correction_count) == (len(kept), int((raw <= 0).sum()))


def test_one_span_orthonormalization_and_each_column_transformed_once(monkeypatch):
    calls = {"orthonormalize": 0, "transformed_columns": 0}
    original_orth, original_coords = orthonormalize, Metric.to_coords

    def counted_orth(*args, **kwargs):
        calls["orthonormalize"] += 1
        return original_orth(*args, **kwargs)

    def counted_coords(self, x):
        calls["transformed_columns"] += np.asarray(x).shape[1]
        return original_coords(self, x)

    for name in ("core", "solver", "mfpod", "adaptive", "pod"):
        monkeypatch.setattr(importlib.import_module(f"mfpod.{name}"), "orthonormalize", counted_orth)
    monkeypatch.setattr(Metric, "to_coords", counted_coords)

    rng = np.random.default_rng(10)
    metric = random_spd_metric(rng, 12)
    sets = random_instance(rng, 12, 2, 6, metric)
    columns = sets[0].count + sets[1].count  # every snapshot column of the span
    mf = mfpod_fixed(sets, (5.0,), kappa=0.99, metric=metric)
    assert mf.correction_count >= 1  # the repair path ran
    assert calls == {"orthonormalize": 1, "transformed_columns": columns}

    calls.update(orthonormalize=0, transformed_columns=0)
    mfpod_adaptive(sets, kappa=0.99, metric=metric)
    assert calls == {"orthonormalize": 1, "transformed_columns": columns}


# -- the span across several Gram-Schmidt blocks -------------------------------

_COARSE, _FINE = AdvDiffConfig(n_hf=129, n_lf=9), AdvDiffConfig(n_hf=129, n_lf=17)


def _multiblock_surrogate(seed=4):
    """2 * _SPAN_BLOCK + 17 prolonged surrogate snapshots at n = 129: two
    blocks from a 9-node surrogate, then 17 from a 17-node one, whose
    extra directions can join the span only in the third block."""
    thetas = sample_parameters(2 * _SPAN_BLOCK + 17, seed, _FINE.theta_range)
    return thetas, np.column_stack([
        snapshot(t, "low", _COARSE if j < 2 * _SPAN_BLOCK else _FINE) for j, t in enumerate(thetas)
    ])


def _single_level(s) -> tuple:
    return (SnapshotSet(0, s, np.zeros((s.shape[0], 0)), tuple(range(s.shape[1])), 1.0),)


def _multiblock_two_level(seed=4):
    thetas, lf = _multiblock_surrogate(seed)
    hf = np.column_stack([snapshot(t, "high", _FINE) for t in thetas[:8]])
    return SnapshotSet.two_level(hf, lf, 1.0, 17 / 129)


def test_span_grows_across_blocks():
    metric = fine_metric(_FINE)
    _, lf = _multiblock_surrogate()
    span = SnapshotSpan.from_sets(_single_level(lf), metric)
    q, t = span.basis, metric.to_coords(lf)
    assert np.abs(q.T @ q - np.eye(span.rank)).max() <= 1e-14
    # every snapshot lies in the span up to the dependence rule
    scale = np.linalg.norm(t, axis=0).max()
    assert np.linalg.norm(t - q @ (q.T @ t), axis=0).max() <= 1e-11 * scale
    assert span.rank >= np.linalg.matrix_rank(t)
    # the 17-node snapshots of the third block add directions
    first_two = SnapshotSpan.from_sets(_single_level(lf[:, :2 * _SPAN_BLOCK]), metric)
    assert span.rank >= first_two.rank + 8


@pytest.mark.parametrize("n_lf", [9, 17, 33])
def test_span_rank_stays_within_three_of_the_numerical_rank(n_lf):
    # prolonged surrogate snapshots are graded down to roundoff; each block
    # decides its rank alone, so the span's blocked growth may add a few
    # directions near its rule (at most 3 over seeds 0-39; Gram-Schmidt added 5)
    model = AdvDiffConfig(n_hf=129, n_lf=n_lf)
    metric = fine_metric(model)
    for seed in range(5):
        for size in (250, 517):
            lf = snapshot(sample_parameters(size, seed, model.theta_range), "low", model)
            span = SnapshotSpan.from_sets(_single_level(lf), metric)
            assert span.rank <= np.linalg.matrix_rank(metric.to_coords(lf)) + 3, (seed, size)


def test_one_block_with_a_spectral_gap_gets_its_numerical_rank():
    # 20 singular values from 1 to 1e-9, then 20 at 1e-16: far on either side of the rule
    rng = np.random.default_rng(3)
    metric = fine_metric(_FINE)
    u, _ = np.linalg.qr(rng.standard_normal((metric.n, 40)))
    v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    s = np.concatenate([np.logspace(0, -9, 20), np.full(20, 1e-16)])
    block = metric.from_coords((u * s) @ v.T)
    span = SnapshotSpan.from_sets(_single_level(block), metric)
    assert span.rank == np.linalg.matrix_rank(metric.to_coords(block)) == 20


def test_pod_across_blocks_matches_dense_gramian():
    metric = fine_metric(_FINE)
    _, lf = _multiblock_surrogate()
    m = lf.shape[1]
    res = pod(lf, metric)
    t = metric.to_coords(lf)
    vals, w = scipy.linalg.eigh(t.T @ t / m)
    vals, w = vals[::-1], w[:, ::-1]
    kept = int(np.sum(vals > 1e-10 * vals[0]))
    assert res.basis.dim == kept
    want = np.where(np.arange(m) < kept, vals, 0.0)
    np.testing.assert_allclose(res.eigvals, want, rtol=0, atol=1e-12 * vals[0])
    modes = lf @ w[:, :kept] / np.sqrt(m * vals[:kept])
    for r in range(1, kept):
        if vals[r - 1] - vals[r] > 1e-6 * vals[0]:
            assert subspace_alignment(leading(res.basis, r), Basis(modes[:, :r], metric)) < 1e-8


def test_mfpod_fixed_across_blocks_matches_dense_oracle():
    metric = fine_metric(_FINE)
    sets = _multiblock_two_level()
    alpha = 0.9
    mf = mfpod_fixed(sets, (alpha,), kappa=0.9999, metric=metric)
    vals, vecs = dense_mf_oracle(sets, alpha, metric, drop_tol=1e-10)
    order = np.argsort(-mf.raw_eigvals, kind="stable")
    top = np.abs(vals).max()
    np.testing.assert_allclose(mf.raw_eigvals[order], vals, rtol=0, atol=1e-12 * top)
    for j in range(len(vals) - 1):
        if vals[j] - vals[j + 1] > 1e-6 * top:
            a = Basis(mf.vectors[:, order[: j + 1]], metric)
            assert subspace_alignment(a, orthonormalize(vecs[:, : j + 1], metric)) < 1e-8


def test_span_projections_are_the_basis_coefficients_of_each_block():
    # the span grows in its last Gram-Schmidt block, so the coefficients of
    # earlier blocks on the later directions must be computed, not zeroed;
    # zero-padding passed some seeds and failed others, so every seed of 0-39 runs
    metric = fine_metric(_FINE)
    for seed in range(40):
        lf = _multiblock_surrogate(seed)[1]
        first_block = SnapshotSpan.from_sets(_single_level(lf[:, :_SPAN_BLOCK]), metric)
        for sets in (_single_level(lf), _multiblock_two_level(seed)):
            span = SnapshotSpan.from_sets(sets, metric)
            assert span.rank > first_block.rank, seed
            blocks = [metric.to_coords(b) for b in mfpod_module._snapshot_blocks(sets)]
            scale = max(np.linalg.norm(t, axis=0).max() for t in blocks)
            assert len(span.projections) == len(blocks), seed
            for got, t in zip(span.projections, blocks):
                assert got.shape == (span.rank, t.shape[1]), seed
                np.testing.assert_allclose(got, span.basis.T @ t, rtol=0, atol=1e-13 * scale,
                                           err_msg=f"seed {seed}")


@pytest.mark.parametrize("seed, m0, m1", [(0, 2, 9), (3, 4, 30), (7, 5, 6)])
def test_dense_operator_of_lifted_sets_is_that_of_their_prolonged_twin(seed, m0, m1):
    pair = make_model_pair(_FINE)
    thetas = sample_parameters(m1, seed, _FINE.theta_range)
    hf, coarse = pair.high(thetas[:m0]), pair.coarse(thetas)
    lifted = SnapshotSet.two_level(hf, coarse, 1.0, 0.1, pair.lift)
    dense = SnapshotSet.two_level(hf, pair.lift.matrix @ coarse, 1.0, 0.1)
    got, want = (build_operator(s, (0.8,), pair.metric).assemble_transformed() for s in (lifted, dense))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def _oracle_case(case, rng, n, metric):
    """Snapshot sets and weights of one assembly case; a lifted case also
    returns its prolonged dense twin."""
    if case == "two-level":
        return random_instance(rng, n, 4, 11, metric), (0.8,), None
    if case == "three-level":
        counts, sets = (3, 7, 16), []
        for ell, (m, cost) in enumerate(zip(counts, (1.0, 0.25, 0.05))):
            u, shared = rng.standard_normal((n, m)), counts[ell - 1] if ell else m
            sets.append(SnapshotSet(ell, u[:, :shared], u[:, shared:], range(m), cost))
        return tuple(sets), (0.7, 1.2), None
    lift, hf, coarse = (rng.standard_normal(shape) for shape in ((n, 6), (n, 4), (6, 11)))
    lifted = SnapshotSet.two_level(hf, coarse, 1.0, 0.1, mfpod_module._lift(lift, metric))
    return lifted, (0.8,), SnapshotSet.two_level(hf, lift @ coarse, 1.0, 0.1)


@pytest.mark.parametrize("case", ["two-level", "three-level", "lifted"])
def test_assembled_operator_is_the_transformed_explicit_sum(case):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        metric = random_spd_metric(rng, 23)
        sets, alphas, twin = _oracle_case(case, rng, 23, metric)
        got = build_operator(sets, alphas, metric).assemble_transformed()
        want = transformed_mf_matrix(sets, alphas, metric)[0]
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), seed
        if twin is not None:
            dense = build_operator(twin, alphas, metric).assemble_transformed()
            assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense), seed


@pytest.mark.parametrize("width", [1, 7, 50, 10_000])
def test_mfpod_fixed_does_not_depend_on_the_span_block_width(width, monkeypatch):
    metric = fine_metric(_FINE)
    sets = _multiblock_two_level()
    base = mfpod_fixed(sets, (0.9,), kappa=0.9999, metric=metric)
    monkeypatch.setattr(mfpod_module, "_SPAN_BLOCK", width)
    mf = mfpod_fixed(sets, (0.9,), kappa=0.9999, metric=metric)
    assert (mf.mode_count, mf.selected_dim) == (base.mode_count, base.selected_dim)
    top = base.corrected_eigvals[0]
    for got, want in ((mf.corrected_eigvals, base.corrected_eigvals),
                      (mf.raw_eigvals, base.raw_eigvals)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * top)


# -- invariance to snapshot scale and order --------------------------------------


def _two_level_model_sets(c: float = 1.0, order=None):
    thetas = sample_parameters(60, 12, _FINE.theta_range)
    hf = c * np.column_stack([snapshot(t, "high", _FINE) for t in thetas[:6]])
    lf = c * np.column_stack([snapshot(t, "low", _FINE) for t in thetas])
    if order is not None:
        lf = np.hstack([lf[:, :6], lf[:, 6:][:, list(order)]])
    return SnapshotSet.two_level(hf, lf, 1.0, 17 / 129)


def _worst_alignment(lam, a: Basis, b: Basis) -> float:
    """Worst sin^2 sum between the leading modes of two bases, over the
    block sizes where the spectrum lam of a's modes has a gap."""
    worst = 0.0
    for r in range(1, a.dim + 1):
        if r == a.dim or lam[r - 1] - lam[r] > 1e-6 * lam[0]:
            worst = max(worst, subspace_alignment(leading(a, r), leading(b, r)))
    return worst


@settings(derandomize=True, deadline=None, max_examples=20)
@given(exponent=st.floats(-6.0, 6.0))
def test_mfpod_fixed_is_invariant_to_snapshot_scale(exponent):
    c = 10.0 ** exponent
    metric = fine_metric(_FINE)
    base = mfpod_fixed(_two_level_model_sets(), (0.9,), kappa=0.9999, metric=metric)
    scaled = mfpod_fixed(_two_level_model_sets(c), (0.9,), kappa=0.9999, metric=metric)
    assert (scaled.mode_count, scaled.selected_dim, scaled.correction_count) == \
        (base.mode_count, base.selected_dim, base.correction_count)
    top = c * c * base.corrected_eigvals[0]
    for got, want in ((scaled.corrected_eigvals, base.corrected_eigvals),
                      (scaled.raw_eigvals, base.raw_eigvals)):
        np.testing.assert_allclose(got, c * c * want, rtol=0, atol=1e-12 * top)
    assert _worst_alignment(base.corrected_eigvals, base.full_basis, scaled.full_basis) < 1e-8


@settings(derandomize=True, deadline=None, max_examples=20)
@given(order=st.permutations(range(54)))
def test_mfpod_fixed_is_invariant_to_extra_column_order(order):
    metric = fine_metric(_FINE)
    base = mfpod_fixed(_two_level_model_sets(), (0.9,), kappa=0.9999, metric=metric)
    shuffled = mfpod_fixed(_two_level_model_sets(order=order), (0.9,), kappa=0.9999,
                           metric=metric)
    top = base.corrected_eigvals[0]
    for got, want in ((shuffled.corrected_eigvals, base.corrected_eigvals),
                      (shuffled.raw_eigvals, base.raw_eigvals)):
        np.testing.assert_allclose(np.sort(got), np.sort(want), rtol=0, atol=1e-12 * top)


# -- invariance to the metric basis ---------------------------------------------


def _fits(sets, metric: Metric) -> tuple:
    """(selected r, raw and corrected eigenvalues, modes) of mfpod_fixed on
    both levels and of pod on the surrogate level."""
    mf = mfpod_fixed(sets, (0.8,), kappa=0.9999, metric=metric)
    res = pod(sets[1].columns, metric)
    plain = res.eigvals[:res.basis.dim]
    return ((mf.selected_dim, mf.raw_eigvals, mf.corrected_eigvals, mf.vectors),
            (select_dim(res.eigvals, 0.9999), plain, plain, res.basis.vectors))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), m0=st.integers(1, 4),
       extra=st.integers(1, 30), weighted=st.booleans())
def test_mfpod_fixed_and_pod_are_invariant_to_metric_basis(seed, n, m0, extra, weighted):
    # With x = U x' for an orthogonal U, the snapshots U^T S in the metric
    # U^T W U describe the same geometry: modes V' map back to U V'.
    rng = np.random.default_rng(seed)
    metric = random_spd_metric(rng, n) if weighted else Metric.euclidean(n)
    sets = random_instance(rng, n, m0, m0 + extra, metric)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.eye(n) if metric.weight is None else metric.weight
    turned = Metric.from_weight(u.T @ w @ u)
    turned_sets = tuple(SnapshotSet(s.level, u.T @ s.shared, u.T @ s.extra, s.sample_ids,
                                    s.cost_per_sample) for s in sets)
    for (r, raw, lam, v), (r2, raw2, _, v2) in zip(_fits(sets, metric),
                                                     _fits(turned_sets, turned)):
        assert (v2.shape[1], r2) == (v.shape[1], r)
        np.testing.assert_allclose(np.sort(raw2), np.sort(raw), rtol=0,
                                   atol=1e-12 * np.abs(raw).max())
        assert _worst_alignment(lam, Basis(v, metric), Basis(u @ v2, metric)) < 1e-8
