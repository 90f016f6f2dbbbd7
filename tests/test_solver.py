import numpy as np
import pytest

from mfpod.solver import lowrank_eig


def _rank_k(rng, n, k, spread=1.0):
    """Random symmetric indefinite rank-k matrix with known factors."""
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    vals = rng.uniform(0.2, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k) * spread
    return (q * vals) @ q.T, q


def _restricted(a, block):
    """a restricted to an orthonormal basis of span(block), as the span core does."""
    q, _ = np.linalg.qr(block)
    return q.T @ a @ q


def test_dense_diag_and_similarity():
    res = lowrank_eig(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(res.values, [2.0, 1.0])
    np.testing.assert_allclose(np.abs(res.vectors), np.eye(2), atol=1e-14)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 20))
    a = a + a.T
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    r1 = lowrank_eig(a)
    r2 = lowrank_eig(q @ a @ q.T)
    np.testing.assert_allclose(r1.values, r2.values, rtol=0, atol=1e-10 * np.abs(r1.values).max())


def test_dense_reconstruction():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((50, 50))
    a = (a + a.T) / 2
    res = lowrank_eig(a)
    rec = (res.vectors * res.values) @ res.vectors.T
    assert np.linalg.norm(rec - a) < 1e-9 * np.linalg.norm(a)


def test_lowrank_rejects_asymmetric_and_nonsquare():
    with pytest.raises(ValueError):
        lowrank_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        lowrank_eig(np.zeros((3, 4)))
    assert lowrank_eig(np.zeros((0, 0))).count == 0
    assert lowrank_eig(np.zeros((4, 4))).count == 0


def test_lowrank_matches_dense_on_random_indefinite():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a, q = _rank_k(rng, 200, 10)
        dense = np.sort(np.linalg.eigvalsh(a))[::-1]
        top = np.abs(dense).max()
        nonzero = dense[np.abs(dense) > 1e-10 * top]
        # still spans the range, but rotated and padded with junk columns
        mix = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
        block = np.hstack([q @ mix, rng.standard_normal((200, 2))])
        res = lowrank_eig(_restricted(a, block))
        assert res.count == len(nonzero)
        np.testing.assert_allclose(res.values, nonzero, rtol=1e-8)


def test_rank_one_action():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(40)
    res = lowrank_eig(np.outer(u, u))
    assert res.count == 1
    assert res.values[0] == pytest.approx(np.dot(u, u), rel=1e-12)
    v = res.vectors[:, 0]
    np.testing.assert_allclose(np.abs(v), np.abs(u / np.linalg.norm(u)), atol=1e-10)
    assert v[np.abs(v).argmax()] > 0  # sign convention


def test_range_spanning_block_recovers_exact_rank():
    rng = np.random.default_rng(4)
    for k in (3, 7, 12):
        a, q = _rank_k(rng, 80, k)
        assert lowrank_eig(a).count == k
        block = np.hstack([q, rng.standard_normal((80, 5))])
        assert lowrank_eig(_restricted(a, block)).count == k


def test_converged_pairs_are_orthonormal_with_small_residuals():
    rng = np.random.default_rng(5)
    a, q = _rank_k(rng, 120, 8)
    res = lowrank_eig(a)
    gram = res.vectors.T @ res.vectors
    np.testing.assert_allclose(gram, np.eye(res.count), atol=1e-10)
    top = np.abs(res.values).max()
    assert (res.residuals <= 1e-9 * top).all()
    assert (np.diff(res.values) <= 0).all()
