"""Shared helpers: random weighted metrics, two-level instances, oracles.

The dense oracle assembles the multifidelity operator explicitly with plain
numpy/scipy and eigensolves it in Cholesky-transformed coordinates, entirely
independent of the package's low-rank path.  The adaptive oracle runs the
adaptive loop with deflation by two-sided projection of the full span
operator, the route the package replaced by restriction.  The column
oracles compute residual energies, variance profiles and J_mf from the
n-dimensional snapshot columns, the route the package replaced by the
snapshot span.  The Gram-Schmidt oracle orthonormalizes column by column,
the route the package replaced by one pivoted QR.  The ``forked`` fixture
sends every solve stream through the forked producer.
"""

import mmap
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import mfpod.experiment as experiment
from mfpod import AdaptiveStep, AdaptiveTrace, Basis, Metric, SnapshotSet, optimal_alpha
from mfpod.adaptive import _RESIDUAL_TOL
from mfpod.estimator import _profile
from mfpod.mfpod import SnapshotSpan, _finalize_basis


@pytest.fixture
def forked(monkeypatch):
    """Every solve stream (experiment._solve_stream) takes the forked
    producer; returns the list of rings they map."""
    monkeypatch.setattr(experiment, "_FORK_BREAK_EVEN", 0)
    if not experiment._forks(0):
        pytest.skip("the forked solve stream needs fork and two usable CPUs")
    rings, mapped = [], mmap.mmap

    def recorded(*args):
        rings.append(mapped(*args))
        return rings[-1]

    monkeypatch.setattr(experiment, "mmap", SimpleNamespace(mmap=recorded))
    return rings


def random_spd_metric(rng: np.random.Generator, n: int) -> Metric:
    """Well-conditioned random SPD weight matrix wrapped as a Metric."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.exp(rng.uniform(-0.7, 1.1, size=n))
    return Metric.from_weight((q * d) @ q.T)


def leading(basis: Basis, r: int) -> Basis:
    """The span of basis' first r vectors."""
    return Basis(basis.vectors[:, :r], basis.metric)


def banded_metric(rng: np.random.Generator, n: int, bandwidth: int) -> Metric:
    """Random diagonally dominant (so SPD) weight with the given bandwidth."""
    offs = [rng.uniform(-0.4, 0.4, n - d) / bandwidth for d in range(1, bandwidth + 1)]
    main = rng.uniform(1.0, 2.0, n)
    return Metric.from_weight(scipy.sparse.diags(offs[::-1] + [main] + offs,
                                                 range(-bandwidth, bandwidth + 1)))


def mgs_orthonormalize(vectors, metric: Metric, tol: float = 1e-12) -> Basis:
    """Metric-orthonormal basis of span(vectors) by modified Gram-Schmidt with
    one reorthogonalization pass; a column whose residual norm falls to tol
    times the largest input column norm is dropped."""
    v = np.asarray(vectors, dtype=float)
    n, k = v.shape
    scale = float(np.sqrt(metric.norms_sq(v).max())) if k else 0.0
    qt = np.empty((k, n))
    kept = 0
    for j in range(k):
        w = v[:, j].copy()
        for _ in range(2):
            if kept:
                w -= qt[:kept].T @ (qt[:kept] @ metric.apply(w))
        nw = metric.norm(w)
        if nw > tol * scale:
            qt[kept] = w / nw
            kept += 1
    return Basis(qt[:kept].T.copy(), metric)


def random_instance(rng: np.random.Generator, n: int, m0: int, m1: int,
                    metric: Metric, scale: float = 1.0):
    """Two-level snapshot sets with correlated levels and shared samples."""
    base = rng.standard_normal((n, m1)) * scale
    hf = base[:, :m0] + 0.1 * rng.standard_normal((n, m0)) * scale
    lf = base + 0.3 * rng.standard_normal((n, m1)) * scale
    ids = tuple(range(m1))
    return (
        SnapshotSet(0, hf, np.zeros((n, 0)), ids[:m0], 1.0),
        SnapshotSet(1, lf[:, :m0], lf[:, m0:], ids, 0.125),
    )


def column_energies(basis, cols) -> np.ndarray:
    """Residual energies ||u - proj_V u||^2 of n-dimensional snapshot columns."""
    resid = cols - basis.vectors @ (basis.vectors.T @ basis.metric.apply(cols))
    return basis.metric.norms_sq(resid)


def mc_projection_error(basis, snapshots) -> float:
    """Plain Monte Carlo projection error (1/m) sum_i ||u_i - proj_V u_i||^2."""
    return float(column_energies(basis, snapshots).mean())


def column_profile(basis, sets):
    """Variance profile from each level's m_0 shared snapshot columns, each
    level clamped against the largest squared norm of those columns."""
    m0 = sets[0].count
    cols = [s.snapshots(s.shared[:, :m0]) for s in sets]
    return _profile([column_energies(basis, c) for c in cols],
                    [float(basis.metric.norms_sq(c).max()) for c in cols])


def column_j_mf(basis, sets, alloc) -> float:
    """J_mf from the residual energies of every level's snapshot columns."""
    energies = [column_energies(basis, s.columns) for s in sets]
    total = float(energies[0].mean())
    for a, prev, e in zip(alloc.alphas, sets, energies[1:]):
        total += a * float(e.mean() - e[:prev.count].mean())
    return total


def assemble_mf_matrix(sets, alpha) -> np.ndarray:
    """Explicit sum-of-outer-products form of the operator; ``alpha`` is one
    weight per lower-fidelity level, or one weight for all of them."""
    alphas = np.broadcast_to(np.asarray(alpha, dtype=float), (len(sets) - 1,))
    s0 = sets[0].snapshots(sets[0].shared)
    c = (1.0 / sets[0].count) * (s0 @ s0.T)
    for a, prev, level in zip(alphas, sets, sets[1:]):
        shared, extra = level.snapshots(level.shared), level.snapshots(level.extra)
        c += a * (1.0 / level.count - 1.0 / prev.count) * (shared @ shared.T)
        c += (a / level.count) * (extra @ extra.T)
    return c


def transformed_mf_matrix(sets, alpha, metric: Metric) -> tuple[np.ndarray, np.ndarray]:
    """F^T C F and F for the explicit operator C, with W = F F^T by Cholesky."""
    w = metric.weight if metric.weight is not None else np.eye(sets[0].dim)
    w = np.asarray(w.todense()) if hasattr(w, "todense") else np.asarray(w)
    f = np.linalg.cholesky(w)
    return f.T @ assemble_mf_matrix(sets, alpha) @ f, f


def dense_mf_oracle(sets, alpha: float, metric: Metric, drop_tol: float = 1e-12):
    """Signed-descending nonzero eigenpairs of the explicit operator.

    Eigenvectors are returned metric-orthonormal, in original coordinates.
    """
    sym, f = transformed_mf_matrix(sets, alpha, metric)
    vals, vecs = scipy.linalg.eigh((sym + sym.T) / 2.0)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    top = np.abs(vals).max() if len(vals) else 0.0
    keep = np.abs(vals) > drop_tol * top
    vecs = scipy.linalg.solve_triangular(f.T, vecs[:, keep], lower=False)
    return vals[keep], vecs


def adaptive_oracle(sets, kappa: float, metric: Metric):
    """mfpod_adaptive with each step's full k x k span operator projected
    onto the complement of the modes found and every new mode
    re-orthogonalized against them.

    Returns the MfBasis, the AdaptiveTrace, each step's selection gap
    |lambda| - max |other eigenvalue of the projected operator| and each
    step's variance profile, from which its weight was fitted.
    """
    span = SnapshotSpan.from_sets(sets, metric)
    p0, rank = span.projections[0], span.rank
    norm0 = float(np.linalg.norm(p0))
    z = np.zeros((rank, 0))
    steps, gaps, profiles = [], [], []

    def finalize(termination):
        basis = _finalize_basis(span, [s.raw_eigval for s in steps],
                                [s.corrected_eigval for s in steps], z, kappa)
        return basis, AdaptiveTrace(tuple(steps), termination), gaps, profiles

    resid = norm0
    while True:
        if resid <= _RESIDUAL_TOL * norm0:
            return finalize("residual")
        if z.shape[1] >= rank:
            return finalize("rank")
        profiles.append(span.profile(z))
        alpha = optimal_alpha(profiles[-1])[0]
        full = span.operator((alpha,))
        b = full
        if z.shape[1]:
            b = b - z @ (z.T @ b)
            b = b - (b @ z) @ z.T
            b = (b + b.T) * 0.5
        vals, vecs = scipy.linalg.eigh(b)
        j = int(np.abs(vals).argmax())
        lam = float(vals[j])
        if abs(lam) <= 1e-14 * max(float(np.abs(full).max()), 1e-300):
            return finalize("exhausted")
        gaps.append(abs(lam) - np.delete(np.abs(vals), j).max(initial=0.0))
        zj = vecs[:, j]
        if z.shape[1]:
            zj = zj - z @ (z.T @ zj)
            zj = zj / np.linalg.norm(zj)
        (lam_plus,) = span.repair([lam], zj[:, None])
        z = np.hstack([z, zj[:, None]])
        resid = float(np.linalg.norm(p0 - z @ (z.T @ p0)))
        steps.append(AdaptiveStep(float(alpha), lam, float(lam_plus), resid))
