"""Proper orthogonal decomposition by the method of snapshots.

Eigenvalues follow the sample-mean convention: they belong to the Gramian
scaled by 1/m, so that a single snapshot u yields the lone eigenvalue
``norm(u)**2`` and the tail identity

    (1/m) sum_i ||u_i - proj_{V_r} u_i||^2  ==  sum_{j>r} lambda_j

holds for every r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Basis, Metric, _as_matrix, orthonormalize, project

__all__ = ["PodResult", "pod", "pod_projection_error"]

# Modes with eigenvalue <= _EIG_FLOOR * lambda_1 are discarded.
_EIG_FLOOR = 1e-10


@dataclass(frozen=True)
class PodResult:
    """Spectrum and retained modes of a snapshot POD.

    ``eigvals`` holds the full descending spectrum of the (1/m)-scaled
    Gramian, clipped at zero; ``basis`` keeps only the modes above the
    retention floor, in the same order.
    """

    eigvals: np.ndarray
    basis: Basis
    gramian_size: int

    @property
    def dim(self) -> int:
        return self.basis.dim

    def tail_energy(self, r: int) -> float:
        """sum_{j>r} lambda_j, the optimal mean squared projection error."""
        return float(self.eigvals[max(0, r):].sum())


def pod(snapshots, metric: Metric) -> PodResult:
    """POD of the snapshot columns in the given metric.

    Parameters
    ----------
    snapshots : (n, m) array
        Snapshot columns.  At least one column is required.
    metric : Metric
        Inner product for the Gramian and the returned basis.

    Returns
    -------
    PodResult
        Full clipped spectrum plus the metric-orthonormal retained modes
        v_j = S w_j / sqrt(m lambda_j), for lambda_j above _EIG_FLOOR * lambda_1.
    """
    s = _as_matrix(snapshots)
    n, m = s.shape
    if m == 0:
        raise ValueError("snapshot set is empty")
    if n != metric.n:
        raise ValueError(f"snapshots live in R^{n} but metric has n={metric.n}")
    gram = s.T @ metric.apply(s) / m
    gram = (gram + gram.T) * 0.5
    vals, vecs = scipy.linalg.eigh(gram)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    top = float(vals[0])
    if top > 0 and vals.min() < -1e-8 * top:
        raise ValueError("Gramian is far from positive semidefinite; check the metric")
    vals = np.maximum(vals, 0.0)

    keep = vals > _EIG_FLOOR * top if top > 0 else np.zeros(m, dtype=bool)
    kept = int(keep.sum())
    if kept == 0:
        return PodResult(vals, Basis.empty(metric), m)

    w = vecs[:, :kept]
    # Deterministic sign: largest-magnitude Gramian eigenvector entry positive.
    flips = w[np.abs(w).argmax(axis=0), np.arange(kept)] < 0
    w = np.where(flips[None, :], -w, w)
    modes = (s @ w) / np.sqrt(m * vals[:kept])[None, :]
    if vals[kept - 1] < 1e-6 * top:
        # Near-floor modes lose orthogonality at the eps*lambda_1/lambda_j
        # level; a Gram-Schmidt polish restores it without changing prefix
        # spans.
        basis = orthonormalize(modes, metric)
        if basis.dim != kept:
            raise ValueError("retained modes are numerically dependent")
    else:
        basis = Basis(modes, metric).check(1e-9)
    return PodResult(vals, basis, m)


def pod_projection_error(basis: Basis, snapshots) -> float:
    """Mean squared projection error (1/m) sum_i ||u_i - proj_V u_i||^2."""
    s = _as_matrix(snapshots)
    if s.shape[1] == 0:
        raise ValueError("snapshot set is empty")
    resid = s - project(basis, s)
    return float(basis.metric.norms_sq(resid).mean())
