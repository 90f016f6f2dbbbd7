"""Moment algebra of the control-variate estimate of the projection error.

The multifidelity estimate telescopes cheap low-fidelity residual energies
against the high-fidelity ones computed on shared parameter samples:

    J_mf(V) = mean_{i<=m_0} e_0,i
              + sum_ell alpha_ell * (mean_{i<=m_ell} e_ell,i
                                     - mean_{i<=m_{ell-1}} e_ell,i)

with e_ell,i = ||u_ell(theta_i) - proj_V u_ell(theta_i)||^2.  Sample
variances and covariances of the residual energies drive the weight choice
and the mean squared error bookkeeping here; the energies, ``j_mf`` and
``estimate_profile`` are read off the snapshot span in ``mfpod.mfpod``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "VarianceProfile",
    "Allocation",
    "optimal_alpha",
    "mf_mse",
    "min_mse",
    "usefulness",
]


@dataclass(frozen=True)
class VarianceProfile:
    """Sample moments of the per-level residual energies.

    ``sigma2[ell]`` is the variance of level ell's residual energy and
    ``cov0[ell-1]`` its covariance with level 0, both over the shared
    samples with the unbiased (m_0 - 1) divisor.
    """

    sigma2: np.ndarray
    cov0: np.ndarray
    sample_count: int

    def __post_init__(self):
        s2 = np.asarray(self.sigma2, dtype=float)
        c0 = np.asarray(self.cov0, dtype=float)
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "cov0", c0)
        if s2.ndim != 1 or c0.ndim != 1 or len(c0) != len(s2) - 1:
            raise ValueError("need sigma2 for levels 0..L and cov0 for levels 1..L")
        if (s2 < 0).any():
            raise ValueError("variances must be nonnegative")
        # Relative slack: sample moments satisfy Cauchy-Schwarz only up to
        # roundoff proportional to their own size, whatever the units.
        bound = np.sqrt(s2[0] * s2[1:]) * (1.0 + 1e-9)
        if (np.abs(c0) > bound).any():
            raise ValueError("covariances violate the Cauchy-Schwarz bound")

    @property
    def levels(self) -> int:
        return len(self.sigma2) - 1


@dataclass(frozen=True)
class Allocation:
    """Sample counts, control-variate weights, and per-sample costs."""

    counts: tuple[int, ...]
    alphas: tuple[float, ...]
    costs: tuple[float, ...]
    budget: float | None = None

    def __post_init__(self):
        counts = tuple(int(m) for m in self.counts)
        alphas = tuple(float(a) for a in self.alphas)
        costs = tuple(float(c) for c in self.costs)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "costs", costs)
        if not counts or counts[0] < 1:
            raise ValueError("need m_0 >= 1")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError(f"sample counts must increase strictly, got {counts}")
        if len(alphas) != len(counts) - 1:
            raise ValueError("need one weight per lower-fidelity level")
        if len(costs) != len(counts):
            raise ValueError("need one cost per level")
        if any(not (c > 0 and np.isfinite(c)) for c in costs):
            raise ValueError("costs must be positive and finite")
        if not all(np.isfinite(alphas)):
            raise ValueError("weights must be finite")
        if self.budget is not None and self.total_cost > self.budget + costs[-1]:
            raise ValueError(
                f"allocation spends {self.total_cost:.6g} against budget {self.budget:.6g}"
            )

    @property
    def total_cost(self) -> float:
        return float(sum(m * c for m, c in zip(self.counts, self.costs)))


def _profile(energies, scales) -> VarianceProfile:
    """Moments of the per-level residual energies on the m_0 shared samples,
    each level's energies clamped against ``scales[ell]``, the largest
    squared norm of its shared columns."""
    m0 = len(energies[0])
    # residual energies at roundoff level are exact zeros in disguise;
    # without the clamp a fully captured level gets a garbage variance
    xs = [np.where(e <= 1e-24 * max(scale, 1e-300), 0.0, e) for e, scale in zip(energies, scales)]
    levels = len(xs)
    sigma2 = np.zeros(levels)
    cov0 = np.zeros(levels - 1)
    if m0 > 1:
        # constant energies must center to exact zeros; x - x.mean() leaves
        # roundoff residue when the mean itself rounds
        centered = [
            np.zeros(m0) if np.ptp(x) == 0.0 else x - x.mean() for x in xs
        ]
        for ell in range(levels):
            sigma2[ell] = centered[ell] @ centered[ell] / (m0 - 1)
        for ell in range(1, levels):
            cov0[ell - 1] = centered[0] @ centered[ell] / (m0 - 1)
    return VarianceProfile(sigma2, cov0, m0)


def optimal_alpha(profile: VarianceProfile) -> tuple[float, ...]:
    """MSE-minimizing weights alpha_ell = cov_0ell / sigma_ell^2 (0 if degenerate)."""
    out = []
    for ell in range(1, profile.levels + 1):
        s2 = profile.sigma2[ell]
        out.append(float(profile.cov0[ell - 1] / s2) if s2 > 0 else 0.0)
    return tuple(out)


def mf_mse(profile: VarianceProfile, alloc: Allocation) -> float:
    """Mean squared error of j_mf at the given weights and sample counts."""
    if profile.levels != len(alloc.counts) - 1:
        raise ValueError("profile and allocation disagree on the number of levels")
    m = alloc.counts
    out = profile.sigma2[0] / m[0]
    for ell in range(1, profile.levels + 1):
        a = alloc.alphas[ell - 1]
        gap = 1.0 / m[ell - 1] - 1.0 / m[ell]
        out += gap * (a * a * profile.sigma2[ell] - 2.0 * a * profile.cov0[ell - 1])
    return float(out)


def min_mse(profile: VarianceProfile, alloc: Allocation) -> float:
    """MSE of j_mf at the optimal weights, clipped at zero."""
    return max(mf_mse(profile, replace(alloc, alphas=optimal_alpha(profile))), 0.0)


def usefulness(profile: VarianceProfile, alloc: Allocation, m_mc: int) -> bool:
    """Whether the multifidelity allocation at its optimal weights beats m_mc
    plain MC samples, whose MSE is sigma_0^2 / m_mc; the strict inequality
    means equality (no benefit) counts as not useful.
    """
    if m_mc < 1:
        raise ValueError("m_mc must be at least 1")
    return bool(min_mse(profile, alloc) < profile.sigma2[0] / m_mc)
