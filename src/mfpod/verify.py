"""Statistical verification of the multifidelity covariance estimate.

The estimated operator converges to the true second-moment operator at a
Monte Carlo rate: with fixed sampling ratios, the mean squared
Hilbert-Schmidt error decays like gamma / m_0 for a model-dependent
constant gamma.  The studies here measure that decay empirically against
a large-sample surrogate truth, check the induced bounds on summed
eigenvalues (MSE <= r gamma / m_0) and on subspace alignment
(E[(sum_j sin^2 beta_j)^2] <= 2 r gamma / (m_0 gap^2)), and verify the
exchange identity between the two projection-error sums.

In the discrete setting the Hilbert-Schmidt norm is the Frobenius norm of
the operator matrix in metric coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Basis, Metric, SnapshotSet, _second_moment, project
from .mfpod import _DENSE_CAP, build_operator
from .models import ModelPair

__all__ = [
    "ConvergenceStudyResult",
    "EigenSumStudy",
    "subspace_alignment",
    "reference_matrix",
    "convergence_study",
    "eigenvalue_sum_mse",
]


def subspace_alignment(v: Basis, vstar: Basis) -> float:
    """Sum of squared principal-angle sines between equal-dimension subspaces.

    Computed as r - ||V^T W V*||_F^2, which is symmetric in its arguments;
    zero means identical subspaces, r means orthogonal ones.
    """
    if v.dim != vstar.dim:
        raise ValueError(f"subspace dimensions differ: {v.dim} vs {vstar.dim}")
    if v.dim == 0:
        return 0.0
    cross = v.vectors.T @ v.metric.apply(vstar.vectors)
    return max(0.0, v.dim - float(np.sum(cross * cross)))


def reference_matrix(pair: ModelPair, size: int, seed: int) -> np.ndarray:
    """Surrogate-truth second-moment matrix in metric coordinates.

    Averages size independent high-fidelity snapshots, streamed in chunks
    through the same routine as the study reference; the result is the
    declared truth that study errors are measured against, so size should
    dwarf every study sample count.
    """
    if size < 1:
        raise ValueError("reference size must be positive")
    n = pair.metric.n
    if n > _DENSE_CAP:
        raise ValueError(f"dimension {n} exceeds the dense cap {_DENSE_CAP}")
    return _second_moment(pair.high, pair.sampler(size, seed), pair.metric)


def _study_seed(seed: int, m0: int, rep: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(m0, rep)).generate_state(1)[0])


def _grid_draws(pair: ModelPair, q1: int, m0_grid, repeats: int, seed: int, alpha: float):
    """Validate a study's m_0 grid, repeats and q1, then return the grid and,
    per grid point, a lazy stream of the assembled operators (in metric
    coordinates) of its repeats' prefix-stable draws with m_1 = q1 * m_0."""
    grid = tuple(int(m) for m in m0_grid)
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise ValueError("m0_grid must be strictly increasing with at least two points")
    if repeats < 30:
        raise ValueError("need at least 30 repeats per grid point")
    if q1 < 2:
        raise ValueError("q1 must be at least 2 so that m_1 > m_0")

    def draws(m0):
        for rep in range(repeats):
            thetas = pair.sampler(q1 * m0, _study_seed(seed, m0, rep))
            hf = np.column_stack([pair.high(t) for t in thetas[:m0]])
            lf = np.column_stack([pair.low(t) for t in thetas])
            sets = SnapshotSet.two_level(hf, lf, pair.costs.high, pair.costs.low)
            yield build_operator(sets, (alpha,), pair.metric).assemble_transformed()

    return grid, ((m0, draws(m0)) for m0 in grid)


def _descending_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix, largest eigenvalue first."""
    vals, vecs = scipy.linalg.eigh(mat)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


@dataclass(frozen=True)
class ConvergenceStudyResult:
    """Mean squared operator errors over a grid of high-fidelity counts."""

    m0_grid: tuple[int, ...]
    mean_sq_errors: tuple[float, ...]
    slope: float
    gamma_hat: float
    repeats: int
    q1: int
    alpha: float
    exact: bool


def convergence_study(
    pair: ModelPair,
    q1: int,
    m0_grid,
    repeats: int,
    seed: int,
    alpha: float = 1.0,
    reference_size: int = 10_000,
    reference: np.ndarray | None = None,
) -> ConvergenceStudyResult:
    """Empirical decay of E ||C_hat(m_0) - C||^2 over the m_0 grid.

    Every grid point uses fresh prefix-stable draws with m_1 = q1 * m_0
    and fixed weight alpha.  The fitted log-log slope should sit near -1;
    gamma_hat = mean(m_0 * error) estimates the rate constant.

    Degenerate models whose estimate is exact at every draw are reported
    with ``exact=True`` and an undefined slope.
    """
    grid, points = _grid_draws(pair, q1, m0_grid, repeats, seed, alpha)
    if reference is None:
        reference = reference_matrix(pair, reference_size, seed)
    means = [float(np.mean([np.sum((mat - reference) ** 2) for mat in mats]))
             for _, mats in points]
    means_arr = np.array(means)
    ref_scale = float(np.sum(reference * reference))
    exact = bool(np.all(means_arr <= 1e-24 * max(ref_scale, 1e-300)))
    if exact:
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(grid), np.log(np.maximum(means_arr, 1e-300)), 1)[0])
    gamma_hat = float(np.mean(np.array(grid) * means_arr))
    return ConvergenceStudyResult(
        grid, tuple(means), slope, gamma_hat, repeats, q1, alpha, exact
    )


@dataclass(frozen=True)
class EigenSumStudy:
    """Eigenvalue-sum MSEs and subspace alignment over the m_0 grid."""

    r: int
    m0_grid: tuple[int, ...]
    mse: tuple[float, ...]
    bound: tuple[float, ...]
    gamma_hat: float
    alignment_mean_sq: tuple[float, ...]
    alignment_bound: tuple[float, ...]
    symmetry_max_dev: float
    spectral_gap: float
    gap_degenerate: bool
    energy_ratio_medians: tuple[float, ...]
    reference_energy_ratio: float
    repeats: int


def eigenvalue_sum_mse(
    pair: ModelPair,
    r: int,
    m0_grid,
    repeats: int,
    seed: int,
    alpha: float = 1.0,
    q1: int = 4,
    reference_size: int = 10_000,
    gamma_hat: float | None = None,
    reference: np.ndarray | None = None,
) -> EigenSumStudy:
    """Empirical MSE of the summed top-r eigenvalues against r*gamma/m_0.

    Alongside the eigenvalue sums this measures, per draw, the alignment
    between the estimated and reference top-r subspaces (reported as its
    mean square per grid point) and the deviation of the exchange identity

        sum_j ||v_j* - proj_V v_j*||^2 == sum_j ||v_j - proj_V* v_j||^2,

    whose two sides are evaluated independently.  When ``gamma_hat`` is
    not supplied it is estimated by an internal convergence study with the
    same settings.
    """
    grid, points = _grid_draws(pair, q1, m0_grid, repeats, seed, alpha)
    if r < 1:
        raise ValueError("r must be at least 1")
    if reference is None:
        reference = reference_matrix(pair, reference_size, seed)
    if gamma_hat is None:
        gamma_hat = convergence_study(
            pair, q1, grid, repeats, seed, alpha=alpha, reference=reference
        ).gamma_hat

    ref_vals, ref_vecs = _descending_eigh(reference)
    if r >= len(ref_vals):
        raise ValueError("r must be smaller than the ambient dimension")
    ref_sum = float(ref_vals[:r].sum())
    ref_trace = float(ref_vals.sum())
    gap = float(ref_vals[r - 1] - ref_vals[r])
    gap_degenerate = not gap > 1e-12 * max(abs(ref_vals[0]), 1e-300)
    euclid = Metric.euclidean(pair.metric.n)
    vstar = Basis(ref_vecs[:, :r], euclid)

    mse, bound, align_msq, align_bound, ratio_medians = [], [], [], [], []
    symmetry_max = 0.0
    for m0, mats in points:
        dsum = np.empty(repeats)
        asq = np.empty(repeats)
        ratios = np.empty(repeats)
        point_bound = (
            float("inf") if gap_degenerate else 2.0 * r * gamma_hat / (m0 * gap * gap)
        )
        for rep, mat in enumerate(mats):
            vals, vecs = _descending_eigh(mat)
            dsum[rep] = vals[:r].sum() - ref_sum
            trace = vals.sum()
            ratios[rep] = vals[:r].sum() / trace if abs(trace) > 1e-300 else float("nan")
            if not gap_degenerate:
                v = Basis(vecs[:, :r], euclid)
                forward = float(euclid.norms_sq(vstar.vectors - project(v, vstar.vectors)).sum())
                backward = float(euclid.norms_sq(v.vectors - project(vstar, v.vectors)).sum())
                symmetry_max = max(symmetry_max, abs(forward - backward))
                s = subspace_alignment(v, vstar)
                asq[rep] = s * s
        mse.append(float((dsum * dsum).mean()))
        bound.append(r * gamma_hat / m0)
        align_msq.append(float(asq.mean()) if not gap_degenerate else float("nan"))
        align_bound.append(point_bound)
        ratio_medians.append(float(np.median(ratios)))
    return EigenSumStudy(
        r, grid, tuple(mse), tuple(bound), float(gamma_hat),
        tuple(align_msq), tuple(align_bound),
        float(symmetry_max), gap, gap_degenerate,
        tuple(ratio_medians), ref_sum / ref_trace if ref_trace else float("nan"),
        repeats,
    )
