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
import math
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


# numpy's SeedSequence hash constants (pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(const: int, mult: int, steps) -> np.ndarray:
    """The running hash constant const * mult^j (mod 2^32) of each step j
    that SeedSequence's hashmix steps through, as a uint32 array."""
    return np.array([const * pow(mult, j, 1 << 32) & _MASK32 for j in steps], dtype=np.uint32)


# generate_state(4, uint64) hashes eight 32-bit words cycling over the pool;
# as (2, 4, 1) arrays the constants line up with the pool word each word hashes.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, range(9))
_STATE_XOR, _STATE_MULT = _STATE_CONSTS[:-1].reshape(2, 4, 1), _STATE_CONSTS[1:].reshape(2, 4, 1)

# PCG64's state at its first output: seeding (state 0, step, add the seed,
# step) and the output's own step give, with inc = 2 seq + 1 and multiplier M,
#     ((inc + seed) M + inc) M + inc = seed M^2 + seq 2B + B  (mod 2^128),
# B = M^2 + M + 1: one product with a constant each for seed and seq.
_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_BIAS = (_PCG_MULT * _PCG_MULT + _PCG_MULT + 1) & _MASK128
_PCG_FACTORS = (_PCG_MULT * _PCG_MULT & _MASK128, 2 * _PCG_BIAS & _MASK128)  # (seed, seq)
# the factors' high limbs, low limbs and the low limbs' 32-bit halves, one row each
_FACTOR_HI, _FACTOR_LO, _FACTOR_LO0, _FACTOR_LO1 = (
    np.array([[f >> shift & mask] for f in _PCG_FACTORS], dtype=np.uint64)
    for shift, mask in ((64, _MASK64), (0, _MASK64), (0, _MASK32), (32, _MASK32)))
_BIAS_HI, _BIAS_LO = np.uint64(_PCG_BIAS >> 64), np.uint64(_PCG_BIAS & _MASK64)
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


@functools.lru_cache(maxsize=None)
def _spawn_consts(n_words: int) -> np.ndarray:
    """The hash constants of the spawn word that follows an n_words seed
    (n_words >= 4), as a (2, 4, 1) uint32 array of four xor and four mult
    constants.  The pool takes 4 hash steps, its cross-mixing 12 and each
    seed word past the fourth 4, so the spawn word's four steps are
    4 n_words ... 4 n_words + 3."""
    consts = _hash_consts(_INIT_A, _MULT_A, range(4 * n_words, 4 * n_words + 5))
    spawn = np.stack([consts[:-1], consts[1:]])[:, :, None]
    spawn.flags.writeable = False  # shared by every call through the cache
    return spawn


def _add128(hi, lo, add_hi, add_lo):
    """(hi, lo) + (add_hi, add_lo) mod 2^128 on uint64 limbs."""
    out_lo = lo + add_lo
    return hi + add_hi + (out_lo < lo), out_lo


def _mul_factors(hi, lo):
    """(hi, lo) times _PCG_FACTORS mod 2^128 on uint64 limbs, one factor
    per row; the high half of the 64 x 64 -> 128 product of the low limbs is
    put together from 32-bit halves."""
    a0, a1 = lo & _LOW32, lo >> _SHIFT32
    t = a0 * _FACTOR_LO0
    u = a1 * _FACTOR_LO0 + (t >> _SHIFT32)
    v = a0 * _FACTOR_LO1 + (u & _LOW32)
    carry = a1 * _FACTOR_LO1 + (u >> _SHIFT32) + (v >> _SHIFT32)
    return carry + lo * _FACTOR_HI + hi * _FACTOR_LO, lo * _FACTOR_LO


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
    if not math.isfinite(span):
        raise OverflowError("theta_range width exceeds the float range")

    # SeedSequence: with a spawn key the seed is zero-padded to the pool size,
    # which leaves the pool of SeedSequence(seed) as it is, and the spawn word
    # i, the last entropy word, is hashed and mixed into each of the four pool
    # words in turn (one column per draw).
    seed = int(seed)
    pool = np.array([[_MIX_L * int(p) & _MASK32] for p in np.random.SeedSequence(seed).pool],
                    dtype=np.uint32)
    xor, mult = _spawn_consts(max(4, -(-seed.bit_length() // 32)))
    h = (np.arange(count, dtype=np.uint32) ^ xor) * mult
    mixed = pool - _MIX_R * (h ^ h >> 16)
    mixed ^= mixed >> 16
    # generate_state(4, uint64): rows seed_hi, seed_lo, seq_hi, seq_lo
    state = (mixed ^ _STATE_XOR) * _STATE_MULT
    state ^= state >> 16
    state = state.reshape(8, count).astype(np.uint64)
    words = state[0::2] | state[1::2] << _SHIFT32

    # PCG64's state at its first output, then the XSL-RR output
    hi_limbs, lo_limbs = _mul_factors(words[0::2], words[1::2])
    hi_limb, lo_limb = _add128(hi_limbs[0], lo_limbs[0], hi_limbs[1], lo_limbs[1])
    hi_limb, lo_limb = _add128(hi_limb, lo_limb, _BIAS_HI, _BIAS_LO)
    value, rot = hi_limb ^ lo_limb, hi_limb >> 58
    value = value >> rot | value << (-rot & 63)
    return lo + span * ((value >> 11) * (1.0 / 9007199254740992.0))


def equispaced_parameters(count: int, theta_range=(1.0, 100.0)) -> np.ndarray:
    """Equispaced parameter sweep including both endpoints."""
    if count < 1:
        raise ValueError("count must be positive")
    lo, hi = theta_range
    return np.linspace(lo, hi, count)


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


@functools.lru_cache(maxsize=16)
def _mass_metric(n: int) -> Metric:
    # keyed on the node count, not the config, which a list theta_range
    # makes unhashable; a Metric is never modified after its factorization
    return Metric.from_weight(mass_matrix(n))


# Fine-mesh entries per group of coarse intervals that prolong fills at once.
_PROLONG_GROUP = 1 << 15


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
    # (c_i (k - s) + c_{i+1} s) / k, written in place into out group by group
    # of coarse intervals, so that a group's temporary stays cache-sized
    segs = out[:-1].reshape((n_lf - 1, k) + cols)
    group = max(1, _PROLONG_GROUP // (k * max(1, c.size // n_lf)))
    for a in range(0, n_lf - 1, group):
        b = min(a + group, n_lf - 1)
        seg = segs[a:b]
        np.multiply(c[a:b, None], k - s, out=seg)
        seg += c[a + 1:b + 1, None] * s
        seg /= k
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
    ``sampler(count, seed)`` draws shared parameters prefix-stably.  An
    (n, k) ``lift`` comes with a ``coarse`` solve to k coefficients (a (k, m)
    block for m parameters) such that ``low`` is ``lift @ coarse`` up to roundoff.
    """

    high: Callable[[float | np.ndarray], np.ndarray]
    low: Callable[[float | np.ndarray], np.ndarray]
    metric: Metric
    sampler: Callable[[int, int], np.ndarray]
    costs: ModelCosts = field(default_factory=ModelCosts)
    lift: np.ndarray | None = None
    coarse: Callable[[float | np.ndarray], np.ndarray] | None = None


@functools.lru_cache(maxsize=16)
def _prolongation(n_hf: int, n_lf: int) -> np.ndarray:
    """prolong as one read-only (n_hf, n_lf) matrix per mesh pair."""
    lift = prolong(np.eye(n_lf), n_hf)
    lift.flags.writeable = False
    return lift


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
