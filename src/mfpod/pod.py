"""Proper orthogonal decomposition as the one-level snapshot span.

POD is multifidelity POD with a single level: the operator (1/m) S S^T W
restricted to the snapshot span, solved by ``mfpod_fixed``.  Eigenvalues
follow the sample-mean convention, so that a single snapshot u yields the
lone eigenvalue ``norm(u)**2`` and the tail identity

    (1/m) sum_i ||u_i - proj_{V_r} u_i||^2  ==  sum_{j>r} lambda_j

holds for every r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Basis, Metric, SnapshotSet, _as_matrix
from .core import orthonormalize  # noqa: F401 - a name the benchmark's tracing hooks resolve
from .mfpod import MfBasis, mfpod_fixed

__all__ = ["PodResult", "pod"]


@dataclass(frozen=True)
class PodResult:
    """Spectrum and retained modes of a snapshot POD.

    ``eigvals`` holds m entries: the retained eigenvalues of the
    (1/m)-scaled snapshot operator in descending order, then exact zeros;
    ``modes`` holds the retained modes in the same order (a one-level
    MfBasis, in metric coordinates), and ``basis`` forms their vectors on read.
    """

    eigvals: np.ndarray
    modes: MfBasis

    @property
    def basis(self) -> Basis:
        return self.modes.full_basis


def pod(snapshots, metric: Metric, lift=None) -> PodResult:
    """POD of the snapshot columns in the given metric.

    Parameters
    ----------
    snapshots : (n, m) array
        Snapshot columns, or their (k, m) coefficients of a model pair's
        ``lift`` record (see SnapshotSet).  At least one column is required.
    metric : Metric
        Inner product of the snapshot space and the returned basis.

    Returns
    -------
    PodResult
        The metric-orthonormal modes with eigenvalue above 1e-10 lambda_1,
        each with its largest-magnitude entry in metric coordinates positive,
        and their eigenvalues padded with zeros to m entries.
    """
    s = _as_matrix(snapshots)
    m = s.shape[1]
    level = SnapshotSet(0, s, np.zeros((s.shape[0], 0)), tuple(range(m)), 1.0, lift)
    mf = mfpod_fixed((level,), (), 1.0, metric)
    eigvals = np.zeros(m)
    eigvals[: mf.mode_count] = mf.corrected_eigvals
    return PodResult(eigvals, mf)
