"""Multifidelity POD: the reweighted covariance operator and its basis.

The operator combines high-fidelity snapshots with control-variate
corrections from cheaper models,

    C_mf = (1/m_0) S_0 S_0^T W
           + sum_ell alpha_ell [ (1/m_ell - 1/m_{ell-1}) S_ell S_ell^T
                                 + (1/m_ell) S_ell,+ S_ell,+^T ] W,

acting through the metric weight W.  Its raw eigenvalues estimate the
optimal mean squared projection errors but can be negative for small
sample sizes; nonpositive values are repaired mode by mode before the
energy criterion selects the reduced dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Basis, Metric, SnapshotSet, _as_matrix, _Lift, orthonormalize, validate_levels
from .estimator import Allocation, VarianceProfile, _profile
from .solver import _fix_signs, lowrank_eig

__all__ = [
    "MfBasis",
    "SnapshotSpan",
    "mfpod_fixed",
    "jmf_plus",
    "select_dim",
    "j_mf",
    "estimate_profile",
]

# Corrected eigenvalues below this fraction of the largest are truncated.
_PLUS_FLOOR = 1e-10
# Largest dimension for which the operator is assembled as a dense matrix.
_DENSE_CAP = 4096
# Snapshot columns per block of the span's growth.
_SPAN_BLOCK = 50


def _check_sets(sets, metric: Metric) -> tuple:
    sets = tuple(sets)
    validate_levels(sets)
    if sets[0].dim != metric.n:
        raise ValueError("snapshot dimension does not match the metric")
    if any(s.lift is not None and s.lift.metric is not metric for s in sets):
        raise ValueError("a lift's span must be grown in the snapshots' metric")
    return sets


def _snapshot_blocks(sets) -> tuple[np.ndarray, ...]:
    """S_0, S_1,shared, S_1,extra, S_2,shared, ... in operator order."""
    return (sets[0].shared,) + tuple(b for s in sets[1:] for b in (s.shared, s.extra))


def _block_levels(sets) -> tuple:
    """The level each of _snapshot_blocks' blocks belongs to."""
    return (sets[0],) + tuple(s for s in sets[1:] for _ in (0, 1))


def _coefficients(counts, alphas) -> tuple[float, ...]:
    """Weights c so that C_mf = sum c S S^T W over the snapshot blocks."""
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) != len(counts) - 1:
        raise ValueError("need one weight per lower-fidelity level")
    if not all(np.isfinite(alphas)):
        raise ValueError("weights must be finite")
    out = [1.0 / counts[0]]
    for ell in range(1, len(counts)):
        a, m_prev, m = alphas[ell - 1], counts[ell - 1], counts[ell]
        out += [a * (1.0 / m - 1.0 / m_prev), a / m]
    return tuple(out)


# Not exported: verify builds its dense matrices here, and bench/tracing.py hooks both.
@dataclass(frozen=True)
class MfOperator:
    """Snapshot-block form of the multifidelity covariance operator."""

    sets: tuple
    alphas: tuple[float, ...]
    metric: Metric

    def __post_init__(self):
        sets = _check_sets(self.sets, self.metric)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        _coefficients([s.count for s in sets], self.alphas)

    def assemble_transformed(self) -> np.ndarray:
        """Dense symmetric operator matrix sum c T T^T in metric coordinates,
        T each snapshot block in metric coordinates."""
        n = self.metric.n
        if n > _DENSE_CAP:
            raise ValueError(f"dimension {n} exceeds the dense cap {_DENSE_CAP}")
        blocks = [level.snapshots(block)
                  for level, block in zip(_block_levels(self.sets), _snapshot_blocks(self.sets))]
        coeffs = _coefficients([s.count for s in self.sets], self.alphas)
        # one transform and one product: each block's weight scales its columns
        t = self.metric.to_coords(np.hstack(blocks))
        return (t * np.repeat(coeffs, [b.shape[1] for b in blocks])) @ t.T


def build_operator(sets, alphas, metric: Metric) -> MfOperator:
    """Validated multifidelity covariance operator for telescoping snapshot sets."""
    return MfOperator(tuple(sets), tuple(alphas), metric)


def _extend_span(lift: np.ndarray, q: np.ndarray, t: np.ndarray,
                 scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Grow the orthonormal columns q, orthogonal to the fixed orthonormal
    columns lift, by the directions of the block t that neither holds; return
    the grown q and the coefficients of t on lift, then on the grown q.

    The residuals of t against both go through one pivoted QR
    (orthonormalize), which keeps the directions of their numerical rank at
    1e-12 * scale, and the new directions get a second pass against both.
    lift is read, never copied.
    """
    euclid = Metric.euclidean(q.shape[0])
    c_lift, coeff = lift.T @ t, q.T @ t
    resid = t - lift @ c_lift if lift.shape[1] else t
    resid = resid - q @ coeff if q.shape[1] else resid
    norms = np.sqrt(euclid.norms_sq(resid))
    keep = norms > 1e-12 * scale
    if not keep.any():
        return q, np.concatenate([c_lift, coeff])
    # columns already in the span stay out of the QR, whose cost grows with the square of its width
    new = orthonormalize(resid if keep.all() else resid[:, keep], euclid,
                         1e-12 * scale / norms.max()).vectors
    if lift.shape[1] + q.shape[1]:
        # Cancellation inside the block can leave the new vectors with
        # components in the span up to eps / 1e-12; a second pass removes
        # them, and the Gram of what is left is then within about
        # (eps / 1e-12)^2 of I, so one Cholesky QR step renormalizes it to roundoff.
        new = new - lift @ (lift.T @ new) - q @ (q.T @ new)
        new = new @ np.linalg.inv(np.linalg.cholesky(new.T @ new)).T
    return np.hstack([q, new]), np.concatenate([c_lift, coeff, new.T @ t])


def _lift(matrix, metric: Metric) -> _Lift:
    """The lift record of an (n, k) matrix L in metric: its span grown like a
    dense level 0 of L's columns, read-only like L itself."""
    matrix = np.array(_as_matrix(matrix))
    span = SnapshotSpan.from_sets((SnapshotSet(0, matrix, (), range(matrix.shape[1]), 1.0),), metric)
    parts = (matrix, span._parts[1], span.projections[0])
    for a in parts:
        a.flags.writeable = False
    return _Lift(matrix, metric, *parts[1:])


@dataclass(frozen=True)
class SnapshotSpan:
    """The snapshot span, on which every multifidelity eigenproblem lives.

    Its orthonormal basis Q of the span of all snapshot blocks in metric
    coordinates is kept as two parts: the lift's own span Q_L (empty
    without a lifted level; its lift record's ``basis``, shared) and
    the directions N the dense blocks add, grown _SPAN_BLOCK columns at a
    time by _extend_span.  ``basis`` = [Q_L N] is formed on first read.
    ``projections`` holds Q^T T for each block in operator order, so that
    the operator restricted to the span is the small symmetric matrix
    sum c (Q^T T)(Q^T T)^T for any weights.  A dense block keeps the
    coefficients its growth step returns, and a lifted block C projects as
    (Q_L^T L) C, since N is orthogonal to Q_L.
    """

    _parts: tuple[np.ndarray, np.ndarray]
    projections: tuple[np.ndarray, ...]
    counts: tuple[int, ...]
    metric: Metric

    @classmethod
    def from_sets(cls, sets, metric: Metric) -> "SnapshotSpan":
        sets = _check_sets(sets, metric)
        blocks = _snapshot_blocks(sets)
        lifts = [s.lift for s in _block_levels(sets)]
        if len({lift for lift in lifts if lift is not None}) > 1:
            raise ValueError("lifted levels must share one lift")
        order = sorted(range(len(blocks)), key=lambda i: lifts[i] is not None)  # dense first
        dense = [blocks[i] for i in order if lifts[i] is None]
        lifted = [blocks[i] for i in order[len(dense):]]
        lift, lift_coeff = ((lifts[order[-1]].basis, lifts[order[-1]].coeff) if lifted
                            else (np.zeros((metric.n, 0)), None))
        # one transform of all dense blocks: it maps each column by itself
        stacked = metric.to_coords(np.hstack(dense)) if dense else np.zeros((metric.n, 0))
        m = stacked.shape[1]
        # Q^T T of every block, dense first: a block's coefficients on directions
        # grown after it stay zero, since the later directions are orthogonal to it
        ends = np.cumsum([blocks[i].shape[1] for i in order])
        p = np.zeros((lift.shape[1] + m, ends[-1]))
        for c, end in zip(lifted, ends[len(dense):]):
            p[:lift.shape[1], end - c.shape[1]:end] = lift_coeff @ c
        scale = float(np.sqrt(max(np.einsum("ij,ij->j", t, t).max(initial=0.0)
                                  for t in (stacked, p[:, m:]))))
        own = np.zeros((metric.n, 0))
        for start in range(0, m, _SPAN_BLOCK):
            own, coeff = _extend_span(lift, own, stacked[:, start:start + _SPAN_BLOCK], scale)
            p[:len(coeff), start:start + coeff.shape[1]] = coeff
        p = p[:lift.shape[1] + own.shape[1]]
        parts = {i: p[:, end - blocks[i].shape[1]:end] for i, end in zip(order, ends)}
        return cls((lift, own), tuple(parts[i] for i in range(len(blocks))),
                   tuple(s.count for s in sets), metric)

    @cached_property
    def basis(self) -> np.ndarray:
        """Q = [Q_L N], n x k."""
        return np.hstack(self._parts)

    @property
    def rank(self) -> int:
        return self._parts[0].shape[1] + self._parts[1].shape[1]

    @cached_property
    def _grams(self) -> tuple[np.ndarray, ...]:
        return tuple(p @ p.T for p in self.projections)

    @cached_property
    def _shared(self) -> tuple[np.ndarray, ...]:
        m0 = self.counts[0]
        return (self.projections[0],) + tuple(p[:, :m0] for p in self.projections[1::2])

    @cached_property
    def _scales(self) -> tuple[float, ...]:
        """Each level's largest shared-column energy, the scale _profile clamps against."""
        return tuple(float(np.einsum("ij,ij->j", p, p).max()) for p in self._shared)

    def operator(self, alphas) -> np.ndarray:
        """k x k matrix Q^T C_mf Q of the operator with the given weights.

        Each block's Gram P P^T is formed on the first call and cached on
        the span, so further weights cost one k x k sum per block."""
        b = np.zeros((self.rank, self.rank))
        for c, g in zip(_coefficients(self.counts, alphas), self._grams):
            b += c * g
        return (b + b.T) * 0.5

    def _basis_coords(self, basis: Basis) -> tuple[np.ndarray, np.ndarray]:
        """G = V~^T Q and H = V~_perp^T V~_perp of a metric-orthonormal basis V,
        V~ = F^T V and V~_perp = V~ - Q G^T its part outside the span."""
        if basis.metric is not self.metric:
            raise ValueError("the basis and the span must share one metric")
        vt = self.metric.to_coords(basis.vectors)
        g = vt.T @ self.basis
        perp = vt - self.basis @ g.T
        return g, perp.T @ perp

    @staticmethod
    def _energies(g: np.ndarray, h: np.ndarray | None, blocks) -> list[np.ndarray]:
        """Residual energies ||p - G^T G p||^2 + (G p)^T H (G p) of each block's
        columns p, the parts inside and outside the span (none if h is None)."""
        out = []
        for p in blocks:
            gp = g @ p
            r = p - g.T @ gp
            e = np.einsum("ij,ij->j", r, r)
            out.append(e if h is None else e + np.einsum("ij,ij->j", gp, h @ gp))
        return out

    def residual_energies(self, basis: Basis) -> tuple[np.ndarray, ...]:
        """||u - proj_V u||^2 of each level's snapshots u, shared columns first, at
        a metric-orthonormal V, which may leave the span; u counts by its span
        coordinates, short of a part below 1e-12 times the largest column norm."""
        e = self._energies(*self._basis_coords(basis), self.projections)
        return (e[0],) + tuple(np.concatenate(e[i:i + 2]) for i in range(1, len(e), 2))

    def profile(self, z: np.ndarray) -> VarianceProfile:
        """estimate_profile at the basis Q z inside the span (z orthonormal k x r):
        the energies of the m_0 shared columns with G = z^T and no H term."""
        return _profile(self._energies(z.T, None, self._shared), self._scales)

    def repair(self, vals: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Corrected eigenvalues of the modes Q y: each positive value as it is,
        each other the Monte Carlo energy (1/m_0) sum_i (u_0,i, v)^2 of its mode,
        all of them from one product with the high-fidelity projections."""
        plus = np.array(vals, dtype=float)
        low = plus <= 0
        if low.any():
            p = self.projections[0].T @ y[:, low]
            plus[low] = np.einsum("ij,ij->j", p, p) / self.counts[0]
        return plus


@dataclass(frozen=True)
class MfBasis:
    """Multifidelity POD modes with raw and corrected eigenvalues.

    Modes are kept as their coordinates y in the orthonormal basis Q of
    their snapshot span, ordered by corrected eigenvalue.  Their metric
    coordinates ``coords`` = F^T V = Q y, each column with its
    largest-magnitude entry positive, and the ambient ``vectors`` V are
    formed on first read.
    ``selected_dim`` is the smallest r whose cumulative corrected energy
    reaches ``kappa``.
    ``correction_count`` counts the nonpositive raw eigenvalues that were
    replaced by their Monte Carlo energy.
    """

    raw_eigvals: np.ndarray
    corrected_eigvals: np.ndarray
    _y: np.ndarray
    _span: SnapshotSpan
    kappa: float
    correction_count: int

    def __post_init__(self):
        # float arrays from _finalize_basis, the one constructor
        raw, plus, y = self.raw_eigvals, self.corrected_eigvals, self._y
        if not (len(raw) == len(plus) == y.shape[1]) or len(y) != self._span.rank:
            raise ValueError("eigenvalue arrays and span coordinates disagree in shape")
        if (plus < 0).any():
            raise ValueError("corrected eigenvalues must be nonnegative")
        if y.shape[1]:
            Basis(y, Metric.euclidean(len(y))).check(1e-9)  # Q is orthonormal by construction

    @property
    def metric(self) -> Metric:
        return self._span.metric

    @cached_property
    def coords(self) -> np.ndarray:
        return _fix_signs(self._span.basis @ self._y)

    @cached_property
    def vectors(self) -> np.ndarray:
        return self.metric.from_coords(self.coords)

    @property
    def mode_count(self) -> int:
        return self._y.shape[1]

    @property
    def selected_dim(self) -> int:
        return select_dim(self.corrected_eigvals, self.kappa)

    @property
    def energy_fraction(self) -> float:
        """Share of the corrected energy in the selected modes."""
        r, cum = self.selected_dim, np.cumsum(self.corrected_eigvals)
        return float(cum[r - 1] / cum[-1]) if r else 0.0

    @property
    def basis(self) -> Basis:
        """The selected r-dimensional subspace."""
        return Basis(self.vectors[:, : self.selected_dim], self.metric)

    @property
    def full_basis(self) -> Basis:
        return Basis(self.vectors, self.metric)


def select_dim(eigvals, kappa: float) -> int:
    """Smallest r whose leading eigenvalues reach the kappa energy fraction."""
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    vals = np.asarray(eigvals, dtype=float)
    if (vals < 0).any():
        raise ValueError("eigenvalues must be nonnegative")
    cum = np.cumsum(vals)
    total = cum[-1] if len(cum) else 0.0
    if total <= 0:
        return 0
    return int(np.searchsorted(cum, kappa * total) + 1)


def _finalize_basis(span: SnapshotSpan, raw, plus, y, kappa) -> MfBasis:
    """Order modes Q y by corrected value and truncate; kappa picks r on the MfBasis.

    An empty or all-zero corrected spectrum keeps no mode.
    """
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    raw = np.asarray(raw, dtype=float)
    plus = np.asarray(plus, dtype=float)
    order = np.lexsort((-raw, -plus))
    keep = order[plus[order] > _PLUS_FLOOR * plus.max(initial=0.0)]
    return MfBasis(raw[keep], plus[keep], y[:, keep], span, kappa, int((raw <= 0).sum()))


def _as_span(sets, metric: Metric) -> SnapshotSpan:
    """The span of telescoping snapshot sets in metric, or a given span built in metric."""
    if not isinstance(sets, SnapshotSpan):
        return SnapshotSpan.from_sets(sets, metric)
    if sets.metric is not metric:
        raise ValueError("the basis and the span must share one metric")
    return sets


def mfpod_fixed(sets, alphas, kappa: float, metric: Metric) -> MfBasis:
    """Multifidelity POD basis for fixed control-variate weights.

    Solves the operator eigenproblem restricted to the snapshot span,
    repairs nonpositive eigenvalues, orders modes by corrected value, and
    selects the smallest dimension reaching the ``kappa`` energy fraction.

    Parameters
    ----------
    sets : sequence of SnapshotSet, or their SnapshotSpan
        Telescoping snapshot hierarchy (level 0 is high fidelity).
    alphas : sequence of float
        One weight per lower-fidelity level.
    kappa : float
        Energy fraction in (0, 1] for the dimension selection.
    metric : Metric
        Inner product of the ambient space; a given span must be built in it.
    """
    span = _as_span(sets, metric)
    pairs = lowrank_eig(span.operator(alphas))
    return _finalize_basis(span, pairs.values, span.repair(pairs.values, pairs.vectors),
                           pairs.vectors, kappa)


def jmf_plus(mf: MfBasis, candidate: Basis) -> float:
    """Adjusted multifidelity error estimate of a candidate subspace.

    sum_j lambda_j^+ (1 - ||proj_V v_j||^2) over the retained modes;
    nonnegative by construction, and equal to the corrected tail energy
    when the candidate is the leading block of the modes themselves.
    """
    if candidate.metric is not mf.metric:
        raise ValueError("the basis and the span must share one metric")
    coeff = mf.metric.to_coords(candidate.vectors).T @ mf.coords
    captured = np.einsum("ij,ij->j", coeff, coeff)
    return float(np.sum(mf.corrected_eigvals * np.maximum(0.0, 1.0 - captured)))


def j_mf(basis: Basis, sets, alloc: Allocation) -> float:
    """Multifidelity estimate of the expected squared projection error.

    The sum over snapshot blocks b of c_b times b's residual energies, with
    c the operator's telescoping block weights (_coefficients).  The value
    is unbiased for the high-fidelity mean but, unlike the plain Monte Carlo
    mean, may be negative for unlucky draws.  ``sets`` may be their
    SnapshotSpan in the basis' metric: to score many candidates on the same
    draws, build ``span = SnapshotSpan.from_sets(sets, metric)`` once and
    pass it here and to estimate_profile for each candidate.
    """
    span = _as_span(sets, basis.metric)
    if span.counts != alloc.counts:
        raise ValueError(f"allocation counts {alloc.counts} do not match {span.counts}")
    energies = span._energies(*span._basis_coords(basis), span.projections)
    return float(sum(c * e.sum() for c, e in zip(_coefficients(span.counts, alloc.alphas), energies)))


def estimate_profile(basis: Basis, sets) -> VarianceProfile:
    """Sample variances/covariances of residual energies on shared samples.

    Uses the first m_0 columns of every level (the shared parameter draws),
    read off their span like j_mf, and the unbiased (m_0 - 1) divisor; a
    single shared sample yields an all-zero profile.
    """
    span = _as_span(sets, basis.metric)
    return _profile(span._energies(*span._basis_coords(basis), span._shared), span._scales)
