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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse

from .core import Metric

__all__ = [
    "AdvDiffConfig",
    "ModelCosts",
    "ModelPair",
    "sample_parameters",
    "equispaced_parameters",
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
            raise ValueError("theta_range must be 0 < lo < hi")
        if self.n_lf < 3 or self.n_hf < self.n_lf:
            raise ValueError("need 3 <= n_lf <= n_hf")
        if (self.n_hf - 1) % (self.n_lf - 1) != 0:
            raise ValueError("(n_lf - 1) must divide (n_hf - 1) so the meshes nest")
        if self.advection_sign not in _SIGNS:
            raise ValueError(f"advection_sign must be one of {sorted(_SIGNS)}")


@dataclass(frozen=True)
class ModelCosts:
    """Per-sample costs normalized so a high-fidelity solve costs 1."""

    high: float = 1.0
    low: float = 33.0 / 4097.0

    @classmethod
    def from_config(cls, config: AdvDiffConfig) -> "ModelCosts":
        return cls(high=1.0, low=config.n_lf / config.n_hf)


def sample_parameters(count: int, seed: int, theta_range=(1.0, 100.0)) -> np.ndarray:
    """Uniform parameter draws where sample i depends only on (seed, i).

    The counter-based stream makes prefixes stable: enlarging the count
    never changes the samples already drawn, so telescoping snapshot sets
    share their parameters by construction.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    lo, hi = theta_range
    if not lo < hi:
        raise ValueError("theta_range must be increasing")
    out = np.empty(count)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        out[i] = rng.uniform(lo, hi)
    return out


def equispaced_parameters(count: int, theta_range=(1.0, 100.0)) -> np.ndarray:
    """Equispaced parameter sweep including both endpoints."""
    if count < 1:
        raise ValueError("count must be positive")
    lo, hi = theta_range
    return np.linspace(lo, hi, count)


def solve_adv_diff(theta: float, n_dofs: int, config: AdvDiffConfig = AdvDiffConfig()) -> np.ndarray:
    """Finite element solution at one parameter on a uniform n_dofs mesh."""
    if not (theta > 0 and np.isfinite(theta)):
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if n_dofs < 3:
        raise ValueError("need at least 3 mesh nodes")
    b = _SIGNS[config.advection_sign]
    n = n_dofs
    h = 1.0 / (n - 1)
    diff = 1.0 / (theta * h)
    lower = -diff - b / 2.0
    diag = 2.0 * diff
    upper = -diff + b / 2.0
    if not np.isfinite(diag):
        raise ValueError(f"theta {theta} is too small for a mesh of {n} nodes")
    # Interior system with the Dirichlet lift moved to the right-hand side.
    k = n - 2
    rhs = np.full(k, h)
    rhs[0] -= lower * config.bc[0]
    rhs[-1] -= upper * config.bc[1]
    if k == 1:  # LAPACK's wrapper rejects the empty off-diagonals of a 1 x 1 system
        interior, info = rhs / diag, 0
    else:
        # the tridiagonal LAPACK solver itself, without solve_banded's validation
        *_, interior, info = scipy.linalg.lapack.dgtsv(
            np.full(k - 1, lower), np.full(k, diag), np.full(k - 1, upper), rhs, 1, 1, 1, 1)
    if info != 0:
        raise ValueError(f"tridiagonal solve failed at theta={theta} (LAPACK info {info})")
    out = np.empty(n)
    out[0] = config.bc[0]
    out[1:-1] = interior
    out[-1] = config.bc[1]
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
    """L^2 inner product on the fine mesh."""
    return Metric.from_weight(mass_matrix(config.n_hf))


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
    segs = (c[:-1, None] * (k - s) + c[1:, None] * s) / k
    out = np.empty((n_hf,) + cols)
    out[:-1] = segs.reshape((n_hf - 1,) + cols)
    out[-1] = c[-1]
    out[::k] = c  # exact nodal values regardless of rounding
    return out


def snapshot(theta: float, fidelity: str, config: AdvDiffConfig = AdvDiffConfig()) -> np.ndarray:
    """One model evaluation in the fine space.

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

    ``high`` and ``low`` map a parameter to a snapshot in the same space;
    ``sampler(count, seed)`` draws shared parameters prefix-stably.
    """

    high: Callable[[float], np.ndarray]
    low: Callable[[float], np.ndarray]
    metric: Metric
    sampler: Callable[[int, int], np.ndarray]
    costs: ModelCosts = field(default_factory=ModelCosts)


def make_model_pair(config: AdvDiffConfig) -> ModelPair:
    """The advection-diffusion pair with its fine-mesh L^2 metric."""
    return ModelPair(
        high=lambda theta: snapshot(theta, "high", config),
        low=lambda theta: snapshot(theta, "low", config),
        metric=fine_metric(config),
        sampler=lambda count, seed: sample_parameters(count, seed, config.theta_range),
        costs=ModelCosts.from_config(config),
    )
