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

from .core import Basis, Metric, SnapshotSet, _as_matrix, orthonormalize, validate_levels
from .estimator import VarianceProfile, _profile
from .solver import _fix_signs, lowrank_eig

__all__ = [
    "MfBasis",
    "SnapshotSpan",
    "mfpod_fixed",
    "jmf_plus",
    "select_dim",
]

# Corrected eigenvalues below this fraction of the largest are truncated.
_PLUS_FLOOR = 1e-10
# Largest dimension for which the operator is assembled as a dense matrix.
_DENSE_CAP = 4096
# Snapshot columns per block of the span's Gram-Schmidt.
_SPAN_BLOCK = 50


def _check_sets(sets, metric: Metric) -> tuple:
    sets = tuple(sets)
    validate_levels(sets)
    if sets[0].dim != metric.n:
        raise ValueError("snapshot dimension does not match the metric")
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


def _extend_span(q: np.ndarray, t: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Grow the orthonormal columns q by the directions of the block t that
    they lack; return the grown q and its coefficients q^T t.

    A column whose residual against q is at most 1e-12 * scale adds no
    direction (orthonormalize's dependence rule, against an absolute scale).
    """
    euclid = Metric.euclidean(q.shape[0])
    coeff = q.T @ t
    resid = t - q @ coeff if q.shape[1] else t
    norms = np.sqrt(euclid.norms_sq(resid))
    keep = norms > 1e-12 * scale
    if not keep.any():
        return q, coeff
    # dependent columns stay out of orthonormalize's column loop
    new = orthonormalize(resid if keep.all() else resid[:, keep], euclid,
                         1e-12 * scale / norms.max()).vectors
    if q.shape[1]:
        # Cancellation inside the block can leave the new vectors with
        # q-components up to eps / 1e-12; a second pass removes them.
        new = orthonormalize(new - q @ (q.T @ new), euclid).vectors
    return np.hstack([q, new]), np.vstack([coeff, new.T @ t])


# Spans of read-only lifts by (lift, metric) identity; an entry keeps both ids taken.
_LIFT_SPANS: dict = {}


def _lift_span(lift: np.ndarray, metric: Metric) -> tuple[np.ndarray, np.ndarray]:
    """Q and Q^T L, the span of one dense block L = F^T lift; cached for a read-only lift."""
    key = (id(lift), id(metric))
    if key in _LIFT_SPANS:
        return _LIFT_SPANS[key][2:]
    level = SnapshotSet(0, lift, np.zeros((len(lift), 0)), range(lift.shape[1]), 1.0)
    span = SnapshotSpan.from_sets((level,), metric)
    if not lift.flags.writeable:
        if len(_LIFT_SPANS) >= 16:
            _LIFT_SPANS.clear()
        span.basis.flags.writeable = span.projections[0].flags.writeable = False
        _LIFT_SPANS[key] = (lift, metric, span.basis, span.projections[0])
    return span.basis, span.projections[0]


@dataclass(frozen=True)
class SnapshotSpan:
    """The snapshot span, on which every multifidelity eigenproblem lives.

    ``basis`` is an orthonormal basis Q of the span of all snapshot blocks
    in metric coordinates, grown _SPAN_BLOCK columns at a time by
    _extend_span, and ``projections`` holds Q^T T for each block in
    operator order, as that growth computes it, so that the operator
    restricted to the span is the small symmetric matrix
    sum c (Q^T T)(Q^T T)^T for any weights.  A lifted block C projects as
    (Q^T L) C, where the span starts from the lift's own span Q_L.
    """

    basis: np.ndarray
    projections: tuple[np.ndarray, ...]
    counts: tuple[int, ...]
    metric: Metric

    @classmethod
    def from_sets(cls, sets, metric: Metric) -> "SnapshotSpan":
        sets = _check_sets(sets, metric)
        blocks = _snapshot_blocks(sets)
        lifts = [s.lift for s in _block_levels(sets)]
        if len({id(lift) for lift in lifts if lift is not None}) > 1:
            raise ValueError("lifted levels must share one lift")
        order = sorted(range(len(blocks)), key=lambda i: lifts[i] is not None)  # dense first
        dense = [blocks[i] for i in order if lifts[i] is None]
        q, lifted = np.zeros((metric.n, 0)), []
        if len(dense) < len(blocks):
            q, coeff = _lift_span(lifts[order[-1]], metric)
            lifted = [coeff @ blocks[i] for i in order[len(dense):]]
        # one transform of all dense blocks: it maps each column by itself
        stacked = metric.to_coords(np.hstack(dense)) if dense else np.zeros((metric.n, 0))
        scale = float(np.sqrt(max(np.einsum("ij,ij->j", t, t).max(initial=0.0)
                                  for t in [stacked] + lifted)))
        starts = range(0, stacked.shape[1], _SPAN_BLOCK)
        coeffs = [np.zeros((q.shape[1], 0))]
        for start in starts:
            q, coeff = _extend_span(q, stacked[:, start:start + _SPAN_BLOCK], scale)
            coeffs.append(coeff)
        # An earlier block lies in the span it grew only up to the dependence rule,
        # so its rows on later directions are computed; the lift's are zero-padded.
        coeffs[1:] = [np.vstack([c, q[:, len(c):].T @ stacked[:, s:s + _SPAN_BLOCK]])
                      for s, c in zip(starts, coeffs[1:])]
        p = np.hstack([np.pad(c, ((0, q.shape[1] - len(c)), (0, 0))) for c in coeffs + lifted])
        splits = np.cumsum([b.shape[1] for b in dense + lifted])[:-1]
        parts = dict(zip(order, np.split(p, splits, axis=1)))
        return cls(q, tuple(parts[i] for i in range(len(blocks))), tuple(s.count for s in sets),
                   metric)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def _grams(self) -> tuple[np.ndarray, ...]:
        return tuple(p @ p.T for p in self.projections)

    def operator(self, alphas) -> np.ndarray:
        """k x k matrix Q^T C_mf Q of the operator with the given weights.

        Each block's Gram P P^T is formed on the first call and cached on
        the span, so further weights cost one k x k sum per block."""
        b = np.zeros((self.rank, self.rank))
        for c, g in zip(_coefficients(self.counts, alphas), self._grams):
            b += c * g
        return (b + b.T) * 0.5

    def profile(self, z: np.ndarray) -> VarianceProfile:
        """estimate_profile at the basis Q z from the span coordinates P of
        each level's m_0 shared columns: their residual energies are the
        column norms^2 of P - Z (Z^T P), short of their parts outside the
        span, below (1e-12)^2 times the largest energy by the dependence rule."""
        m0 = self.counts[0]
        shared = [self.projections[0]] + [p[:, :m0] for p in self.projections[1::2]]
        resids = [p - z @ (z.T @ p) for p in shared]
        return _profile([np.einsum("ij,ij->j", r, r) for r in resids],
                        [float(np.einsum("ij,ij->j", p, p).max()) for p in shared])

    def repair(self, lam: float, y: np.ndarray) -> float:
        """Corrected eigenvalue of the mode Q y: lam if positive, else the
        Monte Carlo energy (1/m_0) sum_i (u_0,i, v)^2 of the mode."""
        if lam > 0:
            return lam
        p = self.projections[0].T @ y
        return float(p @ p) / self.counts[0]


@dataclass(frozen=True)
class MfBasis:
    """Multifidelity POD modes with raw and corrected eigenvalues.

    Modes are ordered by corrected eigenvalue, each with its
    largest-magnitude entry in metric coordinates positive;
    ``selected_dim`` is the smallest r whose cumulative corrected energy
    reaches ``kappa``.
    ``correction_count`` counts the nonpositive raw eigenvalues that were
    replaced by their Monte Carlo energy.
    """

    raw_eigvals: np.ndarray
    corrected_eigvals: np.ndarray
    vectors: np.ndarray
    metric: Metric
    selected_dim: int
    kappa: float
    correction_count: int
    energy_fraction: float
    diagnostic: str | None = None

    def __post_init__(self):
        raw = np.asarray(self.raw_eigvals, dtype=float)
        plus = np.asarray(self.corrected_eigvals, dtype=float)
        vecs = _as_matrix(self.vectors) if np.asarray(self.vectors).size else np.zeros((self.metric.n, 0))
        object.__setattr__(self, "raw_eigvals", raw)
        object.__setattr__(self, "corrected_eigvals", plus)
        object.__setattr__(self, "vectors", vecs)
        if not (len(raw) == len(plus) == vecs.shape[1]):
            raise ValueError("eigenvalue arrays and vectors disagree in length")
        if (plus < 0).any():
            raise ValueError("corrected eigenvalues must be nonnegative")
        if not 0 <= self.selected_dim <= len(plus):
            raise ValueError("selected_dim out of range")
        Basis(vecs, self.metric).check(1e-9)

    @property
    def mode_count(self) -> int:
        return self.vectors.shape[1]

    @property
    def basis(self) -> Basis:
        """The selected r-dimensional subspace."""
        return Basis(self.vectors[:, : self.selected_dim], self.metric)

    @property
    def full_basis(self) -> Basis:
        return Basis(self.vectors, self.metric)

    def tail_energy(self, r: int | None = None) -> float:
        """sum_{j>r} lambda_j^+ of the retained modes."""
        r = self.selected_dim if r is None else r
        return float(self.corrected_eigvals[max(0, r):].sum())


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


def _finalize_basis(span: SnapshotSpan, raw, plus, y, kappa,
                    diagnostic: str | None = None) -> MfBasis:
    """Order modes Q y by corrected value, truncate, apply the energy criterion."""
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    metric = span.metric
    raw = np.asarray(raw, dtype=float)
    plus = np.asarray(plus, dtype=float)
    correction_count = int((raw <= 0).sum())

    def empty(msg):
        return MfBasis(
            np.zeros(0), np.zeros(0), np.zeros((metric.n, 0)), metric,
            selected_dim=0, kappa=kappa, correction_count=correction_count,
            energy_fraction=0.0, diagnostic=msg,
        )

    if len(plus) == 0:
        return empty(diagnostic or "operator is numerically zero")
    order = np.lexsort((-raw, -plus))
    raw, plus, y = raw[order], plus[order], y[:, order]
    top = plus[0]
    if top <= 0:
        return empty(diagnostic or "all corrected eigenvalues are zero")
    keep = plus > _PLUS_FLOOR * top
    raw, plus, y = raw[keep], plus[keep], y[:, keep]

    r = select_dim(plus, kappa)
    cum = np.cumsum(plus)
    return MfBasis(
        raw, plus, metric.from_coords(_fix_signs(span.basis @ y)), metric,
        selected_dim=r, kappa=kappa, correction_count=correction_count,
        energy_fraction=float(cum[r - 1] / cum[-1]), diagnostic=diagnostic,
    )


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
        Inner product of the ambient space.
    """
    span = sets if isinstance(sets, SnapshotSpan) else SnapshotSpan.from_sets(sets, metric)
    pairs = lowrank_eig(span.operator(alphas))
    plus = [span.repair(float(lam), pairs.vectors[:, j]) for j, lam in enumerate(pairs.values)]
    return _finalize_basis(span, pairs.values, plus, pairs.vectors, kappa)


def jmf_plus(mf: MfBasis, candidate: Basis) -> float:
    """Adjusted multifidelity error estimate of a candidate subspace.

    sum_j lambda_j^+ (1 - ||proj_V v_j||^2) over the retained modes;
    nonnegative by construction, and equal to the corrected tail energy
    when the candidate is the leading block of the modes themselves.
    """
    if mf.mode_count == 0:
        return 0.0
    if candidate.dim == 0:
        return float(mf.corrected_eigvals.sum())
    coeff = candidate.vectors.T @ mf.metric.apply(mf.vectors)
    captured = np.einsum("ij,ij->j", coeff, coeff)
    return float(np.sum(mf.corrected_eigvals * np.maximum(0.0, 1.0 - captured)))
