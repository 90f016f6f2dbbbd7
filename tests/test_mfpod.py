import importlib

import numpy as np
import pytest

from mfpod import (
    Allocation,
    Basis,
    Metric,
    SnapshotSet,
    build_operator,
    inner,
    j_mf,
    jmf_plus,
    mfpod_adaptive,
    mfpod_fixed,
    orthonormalize,
    pod,
    subspace_alignment,
)
from mfpod.mfpod import SnapshotSpan

from conftest import assemble_mf_matrix, dense_mf_oracle, random_instance, random_spd_metric


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
        lhs = inner(_action(op, u), v, metric)
        rhs = inner(u, _action(op, v), metric)
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
                energy = np.mean([inner(s0[:, i], v, metric) ** 2 for i in range(s0.shape[1])])
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


def test_jmf_plus_tail_and_bruteforce():
    rng = np.random.default_rng(9)
    metric = random_spd_metric(rng, 30)
    sets = random_instance(rng, 30, 3, 8, metric)
    mf = mfpod_fixed(sets, (0.9,), kappa=0.99, metric=metric)
    full = Basis(mf.vectors, metric)
    assert jmf_plus(mf, full) == pytest.approx(0.0, abs=1e-10 * mf.corrected_eigvals[0])
    r = 3
    top = Basis(mf.vectors[:, :r], metric)
    assert jmf_plus(mf, top) == pytest.approx(mf.corrected_eigvals[r:].sum(),
                                              rel=1e-10, abs=1e-12)
    cand = orthonormalize(rng.standard_normal((30, 5)), metric)
    brute = sum(
        lam * (1.0 - sum(inner(mf.vectors[:, j], cand.vectors[:, k], metric) ** 2
                         for k in range(cand.dim)))
        for j, lam in enumerate(mf.corrected_eigvals)
    )
    assert jmf_plus(mf, cand) == pytest.approx(brute, rel=1e-9)


def test_zero_snapshots_give_empty_basis_with_diagnostic():
    metric = Metric.euclidean(6)
    ids = (0, 1, 2, 3)
    sets = (
        SnapshotSet(0, np.zeros((6, 2)), np.zeros((6, 0)), ids[:2], 1.0),
        SnapshotSet(1, np.zeros((6, 2)), np.zeros((6, 2)), ids, 0.5),
    )
    mf = mfpod_fixed(sets, (1.0,), kappa=0.9, metric=metric)
    assert mf.mode_count == 0 and mf.selected_dim == 0
    assert mf.diagnostic is not None


def test_correction_counters_on_negative_spectrum():
    # strongly negative correction term forces corrected modes
    rng = np.random.default_rng(10)
    metric = Metric.euclidean(12)
    sets = random_instance(rng, 12, 2, 6, metric)
    mf = mfpod_fixed(sets, (5.0,), kappa=0.99, metric=metric)
    assert (mf.raw_eigvals < 0).any()
    assert mf.correction_count >= 1
    assert (mf.corrected_eigvals >= 0).all()


def test_one_span_orthonormalization_and_one_transform_per_block(monkeypatch):
    calls = {"orthonormalize": 0, "to_coords": 0}
    original_orth, original_coords = orthonormalize, Metric.to_coords

    def counted_orth(*args, **kwargs):
        calls["orthonormalize"] += 1
        return original_orth(*args, **kwargs)

    def counted_coords(self, x):
        calls["to_coords"] += 1
        return original_coords(self, x)

    for name in ("core", "solver", "mfpod", "adaptive", "pod"):
        monkeypatch.setattr(importlib.import_module(f"mfpod.{name}"), "orthonormalize", counted_orth)
    monkeypatch.setattr(Metric, "to_coords", counted_coords)

    rng = np.random.default_rng(10)
    metric = random_spd_metric(rng, 12)
    sets = random_instance(rng, 12, 2, 6, metric)
    mf = mfpod_fixed(sets, (5.0,), kappa=0.99, metric=metric)
    assert mf.correction_count >= 1  # the repair path ran
    assert calls == {"orthonormalize": 1, "to_coords": 3}

    calls.update(orthonormalize=0, to_coords=0)
    mfpod_adaptive(sets, kappa=0.99, metric=metric)
    assert calls == {"orthonormalize": 1, "to_coords": 3}
