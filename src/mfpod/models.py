"""Parametric advection-diffusion model pair on the unit interval.

The high- and low-fidelity models solve

    -(1/theta) u'' + b u' = 1  on (0, 1),   u(0) = 1,  u(1) = 0,

with linear finite elements on uniform meshes of n_hf and n_lf nodes and
theta drawn uniformly from the configured range.  The advection sign b is
configurable: b = +1 ("boundary_layer") forms a layer at x = 1 that the
coarse mesh underresolves (the interesting regime), while b = -1
("literal") is solved exactly by 1 - x at every theta and on every mesh.
Low-fidelity snapshots are prolonged to the fine mesh by linear
interpolation, so both fidelities live in the same space with the fine
mass-matrix inner product.  No stabilization is used: coarse-mesh
oscillation at high theta is exactly the low-fidelity bias the
multifidelity estimator has to tolerate.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse

from .core import Metric, _Lift, _UsageError
from .mfpod import _lift

__all__ = [
    "AdvDiffConfig",
    "ModelCosts",
    "ModelPair",
    "sample_parameters",
    "solve_adv_diff",
    "mass_matrix",
    "fine_metric",
    "prolong",
    "snapshot",
    "make_model_pair",
]

_SIGNS = {"literal": -1.0, "boundary_layer": 1.0}


@dataclass(frozen=True)
class AdvDiffConfig:
    theta_range: tuple[float, float] = (1.0, 100.0)
    n_hf: int = 4097
    n_lf: int = 33
    bc: tuple[float, float] = (1.0, 0.0)
    advection_sign: str = "boundary_layer"

    def __post_init__(self):
        lo, hi = self.theta_range
        if not (0 < lo < hi and np.isfinite(hi)):
            raise _UsageError("theta_range must be 0 < lo < hi")
        if self.n_lf < 3 or self.n_hf < self.n_lf:
            raise _UsageError("need 3 <= n_lf <= n_hf")
        if (self.n_hf - 1) % (self.n_lf - 1) != 0:
            raise _UsageError("(n_lf - 1) must divide (n_hf - 1) so the meshes nest")
        if self.advection_sign not in _SIGNS:
            raise _UsageError(f"advection_sign must be one of {sorted(_SIGNS)}")
        if len(self.bc) != 2 or not all(isinstance(b, numbers.Real) and np.isfinite(b)
                                        for b in self.bc):
            raise _UsageError(f"bc must be two finite numbers, got {self.bc!r}")


@dataclass(frozen=True)
class ModelCosts:
    """Per-sample costs normalized so a high-fidelity solve costs 1."""

    high: float = 1.0
    low: float = 33.0 / 4097.0

    @classmethod
    def from_config(cls, config: AdvDiffConfig) -> "ModelCosts":
        return cls(high=1.0, low=config.n_lf / config.n_hf)


def sample_parameters(count: int, seed: int, theta_range=(1.0, 100.0)) -> np.ndarray:
    """Uniform parameter draws, the first count of numpy's PCG64 stream for
    the seed: ``default_rng(seed).uniform(lo, hi, count)``.

    The stream fills the draws in order, so enlarging the count never
    changes the samples already drawn, and telescoping snapshot sets share
    their parameters by construction.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if operator.index(count) < 0:
        raise ValueError("count must be nonnegative")
    lo, hi = theta_range
    if not lo < hi:
        raise ValueError("theta_range must be increasing")
    if not np.isfinite(float(hi) - float(lo)):
        raise OverflowError("theta_range width exceeds the float range")
    return np.random.default_rng(seed).uniform(lo, hi, count)


def solve_adv_diff(theta: float | np.ndarray, n_dofs: int,
                   config: AdvDiffConfig = AdvDiffConfig()) -> np.ndarray:
    """Finite element solution on a uniform n_dofs mesh at one parameter, or
    at each of a 1-D array of m parameters as the columns of an (n_dofs, m)
    block, which has the same bits as solving the columns one by one."""
    if getattr(theta, "ndim", 0):
        return _solve_block(theta, n_dofs, config)
    if not (theta > 0 and np.isfinite(theta)):
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if n_dofs < 3:
        raise ValueError("need at least 3 mesh nodes")
    b = _SIGNS[config.advection_sign]
    n = n_dofs
    h = 1.0 / (n - 1)
    # in Python floats, whose overflow to inf raises no numpy warning ahead
    # of the ValueError below
    diff = 1.0 / (float(theta) * h)
    lower = -diff - b / 2.0
    diag = 2.0 * diff
    upper = -diff + b / 2.0
    if not np.isfinite(diag):
        raise ValueError(f"theta {theta} is too small for a mesh of {n} nodes")
    # Interior system with the Dirichlet lift moved to the right-hand side;
    # one buffer holds the three diagonals and the right-hand side.
    k = n - 2
    system = np.empty((4, k))
    system.T[:] = (lower, diag, upper, h)
    rhs = system[3]
    rhs[0] -= lower * config.bc[0]
    rhs[-1] -= upper * config.bc[1]
    if k == 1:  # LAPACK's wrapper rejects the empty off-diagonals of a 1 x 1 system
        interior, info = rhs / diag, 0
    else:
        # the tridiagonal LAPACK solver itself, without solve_banded's validation
        *_, interior, info = scipy.linalg.lapack.dgtsv(
            system[0, 1:], system[1], system[2, :-1], rhs, 1, 1, 1, 1)
    if info != 0:
        raise ValueError(f"tridiagonal solve failed at theta={theta} (LAPACK info {info})")
    out = np.empty(n)
    out[0] = config.bc[0]
    out[1:-1] = interior
    out[-1] = config.bc[1]
    return out


def _solve_block(thetas: np.ndarray, n: int, config: AdvDiffConfig) -> np.ndarray:
    """solve_adv_diff at each parameter of a 1-D array, as one dgtsv call on
    the block-diagonal stack of the m interior systems.

    The couplings between neighbouring blocks are zero, so at every block
    boundary LAPACK keeps the row order (|d| >= 0), its multiplier is
    exactly 0 and no value crosses into the next block: each block gets the
    bits of its own solve, as long as every solution is finite.  A bad
    parameter raises the error its own solve raises, and a failed pivot
    names the parameter of its block and its info within that block.
    """
    if thetas.ndim != 1:
        raise ValueError(f"theta must be a scalar or a 1-D array, got shape {thetas.shape}")
    if n < 3:
        raise ValueError("need at least 3 mesh nodes")
    b = _SIGNS[config.advection_sign]
    h = 1.0 / (n - 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diff = 1.0 / (thetas * h)
        diag = 2.0 * diff
        ok = (thetas > 0) & np.isfinite(thetas) & np.isfinite(diag)
    if not ok.all():
        solve_adv_diff(float(thetas[np.argmin(ok)]), n, config)  # raises that parameter's error
    lower = -diff - b / 2.0
    upper = -diff + b / 2.0
    m, k = len(thetas), n - 2
    system = np.empty((4, m, k))
    system[:3] = np.stack([lower, diag, upper])[:, :, None]
    system[3] = h
    rhs = system[3]
    rhs[:, 0] -= lower * config.bc[0]
    rhs[:, -1] -= upper * config.bc[1]
    if k == 1 or m == 0:  # dgtsv's wrapper rejects empty off-diagonals
        interior, info = rhs / diag[:, None], 0
    else:
        system[0, :, 0] = system[2, :, -1] = 0.0  # no coupling between blocks
        flat = system.reshape(4, m * k)
        *_, interior, info = scipy.linalg.lapack.dgtsv(
            flat[0, 1:], flat[1], flat[2, :-1], flat[3], 1, 1, 1, 1)
    if info != 0:
        j, local = divmod(info - 1, k)
        raise ValueError(f"tridiagonal solve failed at theta={thetas[j]} (LAPACK info {local + 1})")
    out = np.empty((n, m))
    out[0] = config.bc[0]
    out[1:-1] = interior.reshape(m, k).T
    out[-1] = config.bc[1]
    if not np.isfinite(out).all():
        # a non-finite solution would leak NaN across a zero coupling
        for j, theta in enumerate(thetas):
            out[:, j] = solve_adv_diff(theta, n, config)
    return out


def mass_matrix(n_dofs: int) -> scipy.sparse.csr_matrix:
    """Tridiagonal mass matrix of linear elements on the uniform mesh."""
    if n_dofs < 2:
        raise ValueError("need at least 2 mesh nodes")
    h = 1.0 / (n_dofs - 1)
    main = np.full(n_dofs, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    off = np.full(n_dofs - 1, h / 6.0)
    return scipy.sparse.diags([off, main, off], offsets=[-1, 0, 1], format="csr")


def fine_metric(config: AdvDiffConfig) -> Metric:
    """L^2 inner product on the fine mesh, shared by every config with the
    same n_hf."""
    return _mass_metric(config.n_hf)


@functools.cache
def _mass_metric(n: int) -> Metric:
    # keyed on the node count (a list theta_range makes a config unhashable); never
    # modified after its factorization nor dropped, so fine_metric returns a lift record's metric
    return Metric.from_weight(mass_matrix(n))


def prolong(coarse: np.ndarray, n_hf: int) -> np.ndarray:
    """Linear interpolation onto the nested fine mesh, of one coarse vector
    or of each column of an (n_lf, m) block.

    Coarse nodal values are copied bitwise, so restriction back to the
    coarse mesh is an exact round trip; a block gives the same bits as
    prolonging its columns one by one.
    """
    c = np.asarray(coarse, dtype=float)
    n_lf = c.shape[0]
    if n_lf < 2:
        raise ValueError("coarse vector needs at least 2 nodes")
    if (n_hf - 1) % (n_lf - 1) != 0:
        raise ValueError("meshes do not nest")
    k = (n_hf - 1) // (n_lf - 1)
    if k == 1:
        return c.copy()
    cols = c.shape[1:]
    s = np.arange(k).reshape((k,) + (1,) * len(cols))
    out = np.empty((n_hf,) + cols)
    # (c_i (k - s) + c_{i+1} s) / k, written in place into out
    segs = out[:-1].reshape((n_lf - 1, k) + cols)
    np.multiply(c[:-1, None], k - s, out=segs)
    segs += c[1:, None] * s
    segs /= k
    out[-1] = c[-1]
    out[::k] = c  # exact nodal values regardless of rounding
    return out


def snapshot(theta: float | np.ndarray, fidelity: str,
             config: AdvDiffConfig = AdvDiffConfig()) -> np.ndarray:
    """One model evaluation in the fine space, or the (n_hf, m) block of
    evaluations at a 1-D array of m parameters, with the same bits as the
    columns evaluated one by one.

    ``fidelity="high"`` solves on the fine mesh; ``"low"`` solves on the
    coarse mesh and prolongs the result.
    """
    if fidelity == "high":
        return solve_adv_diff(theta, config.n_hf, config)
    if fidelity == "low":
        return prolong(solve_adv_diff(theta, config.n_lf, config), config.n_hf)
    raise ValueError(f"fidelity must be 'high' or 'low', got {fidelity!r}")


@dataclass(frozen=True)
class ModelPair:
    """Callable bundle of a high/low fidelity pair sharing one parameter.

    ``high`` and ``low`` map a parameter to a snapshot in the same space,
    and a 1-D array of m parameters to the (n, m) block of their snapshots;
    ``sampler(count, seed)`` draws shared parameters prefix-stably.  A
    ``lift`` record of an (n, k) matrix comes with a ``coarse`` solve to k
    coefficients (a (k, m) block for m parameters) such that ``low`` is
    ``lift.matrix @ coarse`` up to roundoff.
    """

    high: Callable[[float | np.ndarray], np.ndarray]
    low: Callable[[float | np.ndarray], np.ndarray]
    metric: Metric
    sampler: Callable[[int, int], np.ndarray]
    costs: ModelCosts = field(default_factory=ModelCosts)
    lift: _Lift | None = None
    coarse: Callable[[float | np.ndarray], np.ndarray] | None = None


@functools.lru_cache(maxsize=16)
def _prolongation(n_hf: int, n_lf: int) -> _Lift:
    """prolong as one (n_hf, n_lf) lift record in the fine metric per mesh pair."""
    return _lift(prolong(np.eye(n_lf), n_hf), _mass_metric(n_hf))


def make_model_pair(config: AdvDiffConfig) -> ModelPair:
    """The advection-diffusion pair with its fine-mesh L^2 metric and the prolongation as lift."""
    return ModelPair(
        high=lambda theta: snapshot(theta, "high", config),
        low=lambda theta: snapshot(theta, "low", config),
        metric=fine_metric(config),
        sampler=lambda count, seed: sample_parameters(count, seed, config.theta_range),
        costs=ModelCosts.from_config(config),
        lift=_prolongation(config.n_hf, config.n_lf),
        coarse=lambda theta: solve_adv_diff(theta, config.n_lf, config),
    )


def _child_seed(seed: int, *key: int) -> int:
    """The seed of the sub-stream of ``seed`` named by the integers ``key``."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _solve_each(solve, thetas, n: int) -> np.ndarray:
    """The (n, m) C-ordered block of solve(theta) at each of m parameters, one at a time."""
    out = np.empty((n, len(thetas)))
    for j, theta in enumerate(thetas):
        out[:, j] = solve(theta)
    return out


def _draw(pair: ModelPair, m0: int, m1: int, seed: int, lifted: bool = False):
    """Prefix-stable draw of max(m0, m1) shared parameters with high fidelity
    solved at the first m0 and the surrogate at the first m1, as (thetas, hf, lf).

    High fidelity is solved one parameter at a time, the surrogate
    (pair.coarse if ``lifted`` and the pair has a lift) as one block, with
    the bits of its columns solved one by one; zero gives (n, 0)."""
    thetas = pair.sampler(max(m0, m1), seed)
    low = pair.coarse if lifted and pair.lift is not None else pair.low
    return thetas, _solve_each(pair.high, thetas[:m0], pair.metric.n), low(thetas[:m1])
