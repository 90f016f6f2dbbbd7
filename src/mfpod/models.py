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

import operator
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


# numpy's SeedSequence hash constants (pool of four 32-bit words) and the
# 128-bit PCG64 multiplier, split into 64-bit halves.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hashmix_rows(rows: np.ndarray, n_rows: int, const: int, mult: int) -> np.ndarray:
    """SeedSequence's hashmix of each of n_rows rows of a uint32 array (a
    single row broadcasts to all of them) in turn, with the running hash
    constant starting at const."""
    consts = [const]
    for _ in range(n_rows):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    out = (rows ^ consts[:-1]) * consts[1:]
    return out ^ out >> 16


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence's pool after mixing every seed word, before the spawn
    key, and the hash constant the spawn word continues with, in Python
    ints.  With a spawn key the seed's words are zero-padded to the pool
    size, so the whole seed mixes in ahead of the spawn word."""
    words = [seed >> 32 * j & _MASK32 for j in range(max(4, -(-seed.bit_length() // 32)))]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const * _MULT_A & _MASK32) & _MASK32
        const = const * _MULT_A & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (_MIX_L * x - _MIX_R * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    return pool, const


def _add128(hi, lo, add_hi, add_lo):
    """(hi, lo) + (add_hi, add_lo) mod 2^128 on uint64 limbs."""
    out_lo = lo + add_lo
    return hi + add_hi + (out_lo < lo), out_lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2^128, on uint64 limbs;
    the 64 x 64 -> 128 product of the low limbs is split into 32-bit halves."""
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return _add128(carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO, lo * _PCG_MULT_LO,
                   inc_hi, inc_lo)


def sample_parameters(count: int, seed: int, theta_range=(1.0, 100.0)) -> np.ndarray:
    """Uniform parameter draws where sample i depends only on (seed, i).

    Draw i is bit-identical to numpy's
    ``default_rng(SeedSequence(seed, spawn_key=(i,))).uniform(lo, hi)``;
    all draws are computed at once by the same SeedSequence hash and PCG64
    step on arrays.  The counter-based stream makes prefixes stable:
    enlarging the count never changes the samples already drawn, so
    telescoping snapshot sets share their parameters by construction.
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
    lo, hi = float(lo), float(hi)
    span = hi - lo
    if not np.isfinite(span):
        raise OverflowError("theta_range width exceeds the float range")

    # SeedSequence: the spawn word i is the last entropy word; it is mixed
    # into each of the four pool words in turn.
    pool, const = _seed_pool(int(seed))
    spawn = np.arange(count, dtype=np.uint32)
    pool = np.array([_MIX_L * p & _MASK32 for p in pool], dtype=np.uint32)[:, None]
    mixed = pool - _MIX_R * _hashmix_rows(spawn, 4, const, _MULT_A)
    mixed ^= mixed >> 16
    # generate_state(4, uint64): eight hashed 32-bit words cycling over the pool
    state = _hashmix_rows(np.concatenate([mixed, mixed]), 8, _INIT_B, _MULT_B).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = (state[j] | state[j + 1] << 32 for j in range(0, 8, 2))

    # PCG64 seeding (state 0, step, add the seed, step), then one step and
    # the XSL-RR output
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    hi_limb, lo_limb = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    for _ in range(2):
        hi_limb, lo_limb = _pcg_step(hi_limb, lo_limb, inc_hi, inc_lo)
    value, rot = hi_limb ^ lo_limb, hi_limb >> 58
    value = value >> rot | value << (-rot & 63)
    return lo + span * ((value >> 11) * (1.0 / 9007199254740992.0))


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
