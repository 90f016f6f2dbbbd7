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

import contextlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Basis, Metric, SnapshotSet, _UsageError, project
from .experiment import _solve_seconds, _solve_stream
from .mfpod import _DENSE_CAP, build_operator
from .models import ModelPair, _child_seed, _draw, _solve_each

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


# High-fidelity snapshots per chunk of the reference's second moment, so
# that at most an n x _CHUNK block of snapshots is held at once, and per item
# of its solve stream, which refills the chunks; _CHUNK is a multiple of _PIECE.
_CHUNK, _PIECE = 2500, 250


def reference_matrix(pair: ModelPair, size: int, seed: int) -> np.ndarray:
    """Surrogate-truth second-moment matrix in metric coordinates.

    Averages t t^T over size independent high-fidelity snapshots t in
    metric coordinates, accumulated over chunks of at most _CHUNK columns;
    the result is the declared truth that study errors are measured
    against, so size should dwarf every study sample count.  The snapshots
    are solved one parameter at a time in items of _PIECE columns, each
    mapped to metric coordinates, through _solve_stream: a large reference
    shares those solves with a forked producer.  This process refills the
    items into the chunks and forms every t t^T, the one BLAS call, so both
    routes give the same bits.
    """
    if size < 1:
        raise ValueError("reference size must be positive")
    n = pair.metric.n
    if n > _DENSE_CAP:
        raise ValueError(f"dimension {n} exceeds the dense cap {_DENSE_CAP}")
    thetas = pair.sampler(size, seed)
    starts = range(0, size, _PIECE)
    stream = _solve_stream([thetas[start:start + _PIECE] for start in starts],
                           lambda piece: pair.metric.to_coords(_solve_each(pair.high, piece, n)),
                           n * _PIECE, _solve_seconds(size, n * size))
    second = np.zeros((n, n))
    chunk = np.empty((n, min(size, _CHUNK)))
    with contextlib.closing(stream):
        for start, t in zip(starts, stream):
            at, end = start % _CHUNK, start % _CHUNK + t.shape[1]
            chunk[:, at:end] = t
            if end == chunk.shape[1] or start + t.shape[1] == size:  # full, or the last
                filled = chunk[:, :end]
                second += filled @ filled.T
    second /= size
    return second


def _check_grid(q1: int, m0_grid, repeats: int) -> tuple[int, ...]:
    """A study's m_0 grid as a tuple, after checking it, repeats and q1."""
    try:
        grid = tuple(int(m) for m in m0_grid)
    except ValueError:
        raise _UsageError(f"m0_grid entries must be integers, got {m0_grid!r}") from None
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise _UsageError("m0_grid must be strictly increasing with at least two points")
    if repeats < 30:
        raise _UsageError("need at least 30 repeats per grid point")
    if q1 < 2:
        raise _UsageError("q1 must be at least 2 so that m_1 > m_0")
    return grid


def _check_reference(reference: np.ndarray, n: int) -> None:
    """Check that a study reference is a finite symmetric n x n matrix."""
    shape = np.shape(reference)
    if shape != (n, n):
        raise ValueError(f"reference has shape {shape}, the metric needs {(n, n)}")
    if not np.isfinite(reference).all():
        raise ValueError(f"reference of shape {shape} has non-finite entries")
    if np.linalg.norm(reference - reference.T) > 1e-12 * np.linalg.norm(reference):
        raise ValueError(f"reference of shape {shape} is not symmetric within 1e-12 relative")


def _check_r(r: int, n: int) -> None:
    """Check an eigenvalue-sum dimension r against the ambient dimension n."""
    if r < 1:
        raise _UsageError("r must be at least 1")
    if r >= n:
        raise _UsageError("r must be smaller than the ambient dimension")


def _grid_draws(pair: ModelPair, q1: int, m0_grid, repeats: int, seed: int, alpha: float):
    """Check a study's m_0 grid, repeats and q1, then return the grid and a
    lazy stream that yields, per grid point, m_0 and a lazy stream of the
    assembled operators (in metric coordinates) of its repeats'
    prefix-stable draws with m_1 = q1 * m_0.  Consume the outer stream under
    contextlib.closing, so that a study that stops early ends its producer.

    The draws' model solves, each draw's high-fidelity then surrogate
    columns side by side, go through _solve_stream, so a large study shares
    them with a forked producer and no producer starts before the first
    draw is asked for.  This process splits them, builds every
    SnapshotSet and operator, and runs every eigensolve the studies make."""
    grid = _check_grid(q1, m0_grid, repeats)

    def columns(key):
        m0, rep = key
        _, hf, lf = _draw(pair, m0, q1 * m0, _child_seed(seed, m0, rep))
        return np.hstack([hf, lf])

    def operators(stream, m0):
        for _ in range(repeats):
            block = next(stream)
            sets = SnapshotSet.two_level(block[:, :m0], block[:, m0:],
                                         pair.costs.high, pair.costs.low)
            yield build_operator(sets, (alpha,), pair.metric).assemble_transformed()

    def points():
        n, hf_columns = pair.metric.n, repeats * sum(grid)
        stream = _solve_stream([(m0, rep) for m0 in grid for rep in range(repeats)], columns,
                               n * (1 + q1) * grid[-1],
                               _solve_seconds(hf_columns, n * (1 + q1) * hf_columns))
        with contextlib.closing(stream):
            for m0 in grid:
                yield m0, operators(stream, m0)

    return grid, points()


def _descending_eigh(mat: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The top eigenpairs of a symmetric matrix, largest (signed) eigenvalue first."""
    vals, vecs = scipy.linalg.eigh(mat, subset_by_index=[len(mat) - top, len(mat) - 1])
    return vals[::-1], vecs[:, ::-1]


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
    *,
    reference: np.ndarray,
) -> ConvergenceStudyResult:
    """Empirical decay of E ||C_hat(m_0) - C||^2 over the m_0 grid.

    Every grid point uses fresh prefix-stable draws with m_1 = q1 * m_0
    and fixed weight alpha, measured against ``reference`` (a
    reference_matrix).  The fitted log-log slope should sit near -1;
    gamma_hat = mean(m_0 * error) estimates the rate constant.

    Degenerate models whose estimate is exact at every draw are reported
    with ``exact=True`` and an undefined slope.
    """
    grid, points = _grid_draws(pair, q1, m0_grid, repeats, seed, alpha)
    _check_reference(reference, pair.metric.n)
    with contextlib.closing(points):
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
    *,
    gamma_hat: float,
    reference: np.ndarray,
) -> EigenSumStudy:
    """Empirical MSE of the summed top-r eigenvalues against r*gamma/m_0.

    Alongside the eigenvalue sums this measures, per draw, the alignment
    between the estimated and reference top-r subspaces (reported as its
    mean square per grid point) and the deviation of the exchange identity

        sum_j ||v_j* - proj_V v_j*||^2 == sum_j ||v_j - proj_V* v_j||^2,

    whose two sides are evaluated independently.  ``reference`` is the
    reference_matrix truth and ``gamma_hat`` the rate constant of a
    convergence study against it.
    """
    grid, points = _grid_draws(pair, q1, m0_grid, repeats, seed, alpha)
    _check_reference(reference, pair.metric.n)
    _check_r(r, len(reference))
    # lambda_{r+1} for the gap; traces off the diagonal, so no draw needs its full spectrum
    ref_vals, ref_vecs = _descending_eigh(reference, r + 1)
    ref_sum = float(ref_vals[:r].sum())
    ref_trace = float(np.trace(reference))
    gap = float(ref_vals[r - 1] - ref_vals[r])
    gap_degenerate = not gap > 1e-12 * max(abs(ref_vals[0]), 1e-300)
    euclid = Metric.euclidean(pair.metric.n)
    vstar = Basis(ref_vecs[:, :r], euclid)

    mse, bound, align_msq, align_bound, ratio_medians = [], [], [], [], []
    symmetry_max = 0.0
    with contextlib.closing(points):
        for m0, mats in points:
            dsum = np.empty(repeats)
            asq = np.empty(repeats)
            ratios = np.empty(repeats)
            point_bound = (
                float("inf") if gap_degenerate else 2.0 * r * gamma_hat / (m0 * gap * gap)
            )
            for rep, mat in enumerate(mats):
                vals, vecs = _descending_eigh(mat, r)
                dsum[rep] = vals.sum() - ref_sum
                trace = np.trace(mat)
                ratios[rep] = vals.sum() / trace if abs(trace) > 1e-300 else float("nan")
                if not gap_degenerate:
                    v = Basis(vecs, euclid)
                    forward = euclid.norms_sq(vstar.vectors - project(v, vstar.vectors)).sum()
                    backward = euclid.norms_sq(v.vectors - project(vstar, v.vectors)).sum()
                    symmetry_max = max(symmetry_max, float(abs(forward - backward)))
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
