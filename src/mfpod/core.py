"""Inner-product geometry and snapshot containers shared by every module.

All vectors live in R^n equipped with an inner product (u, v) = u^T W v for
a symmetric positive definite weight W (W = I for the Euclidean case).  The
lower-triangular factor F with F F^T = W maps metric geometry to Euclidean
geometry through y = F^T x; downstream eigensolves always run on the
transformed, plainly symmetric side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "Metric",
    "SnapshotSet",
    "Basis",
    "project",
    "orthonormalize",
    "validate_levels",
]


class _UsageError(ValueError):
    """A value that cannot run, found from the inputs alone before any model
    is built or solved; the CLI reports it as a usage error (exit 2)."""


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected vector or matrix, got ndim={a.ndim}")
    return a


class Metric:
    """Inner product (u, v) = u^T W v with symmetric positive definite W.

    Parameters come in through the constructors :meth:`euclidean` and
    :meth:`from_weight`; the latter accepts a dense array or any
    scipy.sparse matrix.  Every weight keeps a banded Cholesky factor at its
    own bandwidth, so narrow-banded weights (1D finite element mass matrices
    in particular) transform coordinates at O(n) cost per vector.
    """

    def __init__(self, n: int, weight=None):
        if n < 1:
            raise ValueError("metric dimension must be positive")
        self.n = int(n)
        self.kind = "euclidean" if weight is None else "weighted"
        self._weight = weight
        if weight is not None:
            self._factorize(weight)

    @classmethod
    def euclidean(cls, n: int) -> "Metric":
        return cls(n, None)

    @classmethod
    def from_weight(cls, weight) -> "Metric":
        if scipy.sparse.issparse(weight):
            w = weight.tocsr().astype(float)
        else:
            w = np.asarray(weight, dtype=float)
            if w.ndim != 2:
                raise ValueError("weight must be a matrix")
        if w.shape[0] != w.shape[1]:
            raise ValueError(f"weight must be square, got {w.shape}")
        asym = _fro_norm(w - w.T)
        scale = _fro_norm(w)
        if scale == 0.0 or asym > 1e-12 * scale:
            raise ValueError("weight matrix is not symmetric within 1e-12 relative")
        w = (w + w.T) * 0.5  # kill representation-level asymmetry exactly
        return cls(w.shape[0], w)

    def _factorize(self, w) -> None:
        coo = scipy.sparse.coo_array(w)
        bw = int(np.abs(coo.row - coo.col).max()) if coo.nnz else 0
        # W = F F^T with F^T upper banded, laid out for solve_banded.
        ab = np.zeros((bw + 1, self.n))
        for d in range(bw + 1):
            ab[bw - d, d:] = w.diagonal(d)
        try:
            ft = scipy.linalg.cholesky_banded(ab, lower=False)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError("weight matrix is not positive definite") from exc
        self._ft_bands = ft
        self._ft = scipy.sparse.diags(
            [ft[bw - d, d:] for d in range(bw + 1)], offsets=range(bw + 1), format="csr"
        )

    @property
    def weight(self):
        """Weight matrix W, or None for the Euclidean metric."""
        return self._weight

    def apply(self, x) -> np.ndarray:
        """W @ x for a vector or a matrix of column vectors."""
        if self.kind == "euclidean":
            return np.asarray(x, dtype=float)
        out = self._weight @ x
        return np.asarray(out)

    def inner(self, u, v) -> float:
        u = np.asarray(u, dtype=float)
        return float(u @ self.apply(v))

    def norms_sq(self, x) -> np.ndarray:
        """Columnwise squared norms u^T W u, clipped at zero against roundoff."""
        a = _as_matrix(x)
        out = np.einsum("ij,ij->j", a, self.apply(a))
        return np.maximum(out, 0.0)

    def norm(self, u) -> float:
        return float(np.sqrt(self.norms_sq(u)[0]))

    def to_coords(self, x) -> np.ndarray:
        """y = F^T x, the Euclidean coordinates of x."""
        if self.kind == "euclidean":
            return np.asarray(x, dtype=float)
        return np.asarray(self._ft @ x)

    def from_coords(self, y) -> np.ndarray:
        """Solve F^T x = y, mapping Euclidean coordinates back."""
        if self.kind == "euclidean":
            return np.asarray(y, dtype=float)
        return scipy.linalg.solve_banded((0, len(self._ft_bands) - 1), self._ft_bands, y)

    def __repr__(self) -> str:
        return f"Metric(kind={self.kind!r}, n={self.n})"


def _fro_norm(a) -> float:
    if scipy.sparse.issparse(a):
        return float(np.sqrt(a.multiply(a).sum()))
    return float(np.linalg.norm(a))


@dataclass(frozen=True, eq=False)
class _Lift:
    """A read-only (n, k) lift ``matrix`` L with ``basis`` Q_L, orthonormal columns
    spanning F^T L in ``metric``, and ``coeff`` = Q_L^T F^T L (built by mfpod._lift)."""

    matrix: np.ndarray
    metric: Metric
    basis: np.ndarray
    coeff: np.ndarray


@dataclass(frozen=True)
class SnapshotSet:
    """Snapshots of one fidelity level, split into shared and extra columns.

    Level 0 keeps all of its columns in ``shared``.  For level ell >= 1 the
    ``shared`` block holds the columns evaluated at the previous level's
    parameter samples (all of them, in the same order) and ``extra`` holds
    the additional samples unique to this level.
    With a ``lift`` record of an (n, k) matrix L both blocks hold k
    coefficients per column, standing for the snapshots ``L @ block``.
    """

    level: int
    shared: np.ndarray
    extra: np.ndarray
    sample_ids: tuple[int, ...]
    cost_per_sample: float
    lift: _Lift | None = None

    def __post_init__(self):
        shared = _as_matrix(self.shared)
        extra = _as_matrix(self.extra) if np.asarray(self.extra).size else np.zeros((shared.shape[0], 0))
        object.__setattr__(self, "shared", shared)
        object.__setattr__(self, "extra", extra)
        object.__setattr__(self, "sample_ids", tuple(map(int, self.sample_ids)))
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if extra.shape[0] != shared.shape[0]:
            raise ValueError("shared and extra blocks must have the same row count")
        if self.lift is not None:
            if not isinstance(self.lift, _Lift):
                raise TypeError(f"lift must be a lift record, not {type(self.lift).__name__}")
            if self.lift.matrix.shape[1] != shared.shape[0]:
                raise ValueError("lift columns must match the coefficient rows")
        if self.level == 0 and extra.shape[1] != 0:
            raise ValueError("level 0 carries no extra block")
        if len(self.sample_ids) != shared.shape[1] + extra.shape[1]:
            raise ValueError("sample_ids length must match the column count")
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ValueError("sample_ids must be distinct")
        if not (self.cost_per_sample > 0 and np.isfinite(self.cost_per_sample)):
            raise ValueError("cost_per_sample must be positive and finite")
        if not (np.isfinite(shared).all() and np.isfinite(extra).all()):
            raise ValueError("snapshot entries must be finite")

    @classmethod
    def two_level(cls, hf, lf, cost_high: float, cost_low: float, lift=None) -> tuple:
        """High-fidelity columns plus surrogate columns at the same draws.

        The first ``hf.shape[1]`` surrogate columns are the shared ones; the
        rest are the surrogate's extra samples.  Sample ids are the column
        indices of ``lf``, whose columns are coefficients of ``lift``'s matrix if given.
        """
        hf, lf = _as_matrix(hf), _as_matrix(lf)
        m0, ids = hf.shape[1], tuple(range(lf.shape[1]))
        return (
            cls(0, hf, np.zeros((hf.shape[0], 0)), ids[:m0], cost_high),
            cls(1, lf[:, :m0], lf[:, m0:], ids, cost_low, lift),
        )

    @property
    def dim(self) -> int:
        return self.shared.shape[0] if self.lift is None else self.lift.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.shared.shape[1] + self.extra.shape[1]

    def snapshots(self, block: np.ndarray) -> np.ndarray:
        """The snapshot columns a block of this level stands for."""
        return block if self.lift is None else self.lift.matrix @ block

    @property
    def columns(self) -> np.ndarray:
        """All snapshots of this level, shared columns first."""
        return self.snapshots(np.hstack([self.shared, self.extra]))


def validate_levels(sets) -> None:
    """Check the cross-level contract of a telescoping snapshot hierarchy.

    Raises ValueError on level numbering gaps, an empty level 0,
    non-increasing sample counts, cost ordering violations, dimension
    mismatches, or broken sample sharing (level ell must reuse every sample
    of level ell-1, in order, as its shared block).
    """
    if not sets:
        raise ValueError("need at least one snapshot level")
    for ell, s in enumerate(sets):
        if s.level != ell:
            raise ValueError(f"levels must be numbered 0..L in order, got {s.level} at position {ell}")
        if s.dim != sets[0].dim:
            raise ValueError("all levels must share the ambient dimension")
    counts = [s.count for s in sets]
    if counts[0] < 1:
        raise ValueError("level 0 holds no snapshots")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError(f"sample counts must increase strictly across levels, got {counts}")
    costs = [s.cost_per_sample for s in sets]
    if len(costs) > 1 and costs[0] <= costs[1]:
        raise ValueError("level 0 must be strictly more expensive than level 1")
    if any(b > a for a, b in zip(costs[1:], costs[2:])):
        raise ValueError(f"costs must be non-increasing across lower fidelities, got {costs}")
    for prev, cur in zip(sets, sets[1:]):
        if cur.shared.shape[1] != prev.count:
            raise ValueError(
                f"level {cur.level} shared block has {cur.shared.shape[1]} columns, "
                f"expected {prev.count} from level {prev.level}"
            )
        if cur.sample_ids[: prev.count] != prev.sample_ids:
            raise ValueError(f"level {cur.level} does not share level {prev.level}'s samples in order")


@dataclass(frozen=True)
class Basis:
    """Metric-orthonormal column vectors spanning a subspace."""

    vectors: np.ndarray
    metric: Metric

    def __post_init__(self):
        v = _as_matrix(self.vectors)
        object.__setattr__(self, "vectors", v)
        if v.shape[0] != self.metric.n:
            raise ValueError(f"vectors live in R^{v.shape[0]} but metric has n={self.metric.n}")

    @classmethod
    def empty(cls, metric: Metric) -> "Basis":
        return cls(np.zeros((metric.n, 0)), metric)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def orthonormality_defect(self) -> float:
        """max |V^T W V - I|, zero for an exactly orthonormal basis."""
        if self.dim == 0:
            return 0.0
        g = self.vectors.T @ self.metric.apply(self.vectors)
        return float(np.abs(g - np.eye(self.dim)).max())

    def check(self, tol: float = 1e-9) -> "Basis":
        defect = self.orthonormality_defect()
        if defect > tol:
            raise ValueError(f"basis orthonormality defect {defect:.3e} exceeds {tol:.1e}")
        return self


def project(basis: Basis, u) -> np.ndarray:
    """Orthogonal projection of u (vector or columns) onto span(basis)."""
    a = np.asarray(u, dtype=float)
    if basis.dim == 0:
        return np.zeros_like(a)
    coeff = basis.vectors.T @ basis.metric.apply(a)
    return basis.vectors @ coeff


def orthonormalize(vectors, metric: Metric, tol: float = 1e-12) -> Basis:
    """Metric-orthonormal basis of span(vectors) by QR with column pivoting.

    The pivoted QR of F^T V (Businger and Golub) orders the columns by the
    norm each leaves outside the earlier ones; the leading pivots with
    |R_jj| above tol times the largest input column norm are kept, so the
    dimension is the numerical rank of F^T V at that tolerance, and the
    basis is the Householder Q of the kept columns in pivot order.
    """
    v = _as_matrix(vectors)
    n, k = v.shape
    if n != metric.n:
        raise ValueError(f"vectors live in R^{n} but metric has n={metric.n}")
    if k == 0:
        return Basis.empty(metric)
    y = v if metric.kind == "euclidean" else metric.to_coords(v)
    # The pivots come from the small triangle R_1 of y = Q_1 R_1, which has the
    # column norms and pivots of y, and numpy factors every tall block: numpy and
    # scipy each load their own BLAS, and a tall scipy factorization between
    # numpy's products of a span's growth doubled the reference build at two threads.
    r, pivots = scipy.linalg.qr(np.linalg.qr(y, mode="r"), mode="r", pivoting=True)
    # pivoting puts the largest column first, so |R_00| is the largest norm
    d = np.minimum.accumulate(np.abs(np.diag(r)))
    kept = int(np.count_nonzero(d > tol * d[0]))
    q = np.linalg.qr(y[:, pivots[:kept]])[0]
    return Basis(metric.from_coords(q), metric).check(1e-9)
