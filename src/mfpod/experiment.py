"""Budgeted basis studies with deterministic reports and snapshot files.

A study repeats the full pipeline (draw parameters, solve models, build a
basis, score it against a fixed reference snapshot set) under a
computational budget expressed in units of one high-fidelity solve.  The
split policy decides how the budget is spent:

    even_split    half on high fidelity, half on the surrogate
    fixed_m0:K    exactly K high-fidelity solves, the rest on the surrogate
    hf_only       plain POD on as many high-fidelity solves as fit
    lf_only       plain POD on surrogate solves only

Reports are byte-deterministic for a fixed master seed: rerunning a study
reproduces report.json, every metric CSV, and the MFP1 snapshot files
exactly.  Wall-clock timings are therefore quarantined in timings.csv,
which is the one file excluded from that guarantee.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import multiprocessing
import os
import struct
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from .adaptive import mfpod_adaptive
from .core import Metric, SnapshotSet, _as_matrix, _UsageError
from .estimator import optimal_alpha
from .mfpod import (
    _SPAN_BLOCK,
    MfBasis,
    SnapshotSpan,
    _extend_span,
    mfpod_fixed,
    select_dim,
)
from .mfpod import estimate_profile  # noqa: F401 - a name the benchmark's tracing hooks resolve
from .models import (
    AdvDiffConfig,
    ModelCosts,
    _child_seed,
    _draw,
    fine_metric,
    make_model_pair,
    snapshot,
)
from .models import sample_parameters  # noqa: F401 - a name the benchmark's tracing hooks resolve
from .pod import pod

__all__ = [
    "StudyConfig",
    "StudyReport",
    "Reference",
    "MfpFileError",
    "allocate_budget",
    "build_reference",
    "run_study",
    "write_study",
    "generate_snapshot_files",
    "write_snapshots",
    "read_snapshots",
]

_MAGIC = b"MFPS"
_VERSION = 1
_PERCENTILES = (5, 25, 50, 75, 95)
# Reference eigenvalues at or below this fraction of the trace are roundoff.
_REFERENCE_FLOOR = 1e-14
# Serial solve seconds (_solve_seconds) from which a forked producer shares a
# stream's solves; see _forks.  Forked/serial time ratios on two cores, one
# BLAS thread: reference blocks at n = 4097 read 1.01 at 20 ms priced and
# 0.73 at 41 ms; verify reference items at n = 129 read 1.11 at 18 ms and
# 0.80 at 36 ms; verify draws at n = 129 read 0.90 at 4 ms and 0.72 at 37 ms,
# since the parent's eigensolves hide their solves.  The bench tests' verify
# shapes (2.2 ms) stay below it, so they count every solve in this process.
_FORK_BREAK_EVEN = 0.03
# One core's prices of that work: a solver call (4 us of a per-parameter
# solve's 7-8 us at n = 65-129) and a snapshot entry solved and transformed
# (24-32 ns, the block solve's cost per entry from n = 65 to 4097).
_CALL_S, _ENTRY_S = 4e-6, 25e-9
# Item slots of the shared ring between that producer and the stream's consumer;
# the producer claims only items fewer than this many indices past the one
# the consumer takes next, so the items the parent solves shorten its lookahead.
_RING_SLOTS = 4
# The ring's header word: the next unclaimed item index.
_COUNTER = struct.Struct("q")
# fork by name, since Python 3.14 moves the Linux default off it: the producer
# inherits the items, their solve and the ring with no pickling and no fresh import.
_FORK = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study needs; the config echo in reports is this, verbatim."""

    budget: float
    split: str = "even_split"
    weight_mode: str = "pilot_alpha"
    kappa: float = 0.9999
    repeats: int = 100
    master_seed: int = 0
    model: AdvDiffConfig = field(default_factory=AdvDiffConfig)
    reference_size: int = 10_000
    report_dims: int = 30

    def __post_init__(self):
        for name in ("repeats", "master_seed", "reference_size", "report_dims"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise _UsageError(f"{name} must be an integer, got {value!r}")
        if not (self.budget > 0 and np.isfinite(self.budget)):
            raise _UsageError("budget must be positive and finite")
        if not 0 < self.kappa <= 1:
            raise _UsageError("kappa must lie in (0, 1]")
        if self.repeats < 1:
            raise _UsageError("repeats must be positive")
        if self.master_seed < 0:
            raise _UsageError("master_seed must be nonnegative")
        if self.reference_size < 1 or self.report_dims < 1:
            raise _UsageError("reference_size and report_dims must be positive")
        _parse_split(self.split)
        _parse_weight_mode(self.weight_mode)


def _parse_split(split: str) -> tuple[str, int | None]:
    if split in ("even_split", "hf_only", "lf_only"):
        return split, None
    if split.startswith("fixed_m0:"):
        try:
            k = int(split.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad fixed_m0 split {split!r}, expected fixed_m0:<int>") from None
        if k < 1:
            raise _UsageError("fixed_m0 split needs a positive high-fidelity count")
        return "fixed_m0", k
    raise _UsageError(f"unknown split policy {split!r}")


def _parse_weight_mode(mode: str) -> tuple[str, float | None]:
    if mode in ("pilot_alpha", "adaptive"):
        return mode, None
    if mode.startswith("fixed:"):
        try:
            alpha = float(mode.split(":", 1)[1])
        except ValueError:
            alpha = float("nan")
        if not np.isfinite(alpha):
            raise _UsageError(f"bad weight mode {mode!r}, expected fixed:<finite float>")
        return "fixed", alpha
    raise _UsageError(f"unknown weight mode {mode!r}")


def _check_weight_samples(kind: str, m0: int, m1: int) -> None:
    """Reject a fitted weight (the pilot_alpha or adaptive kind that
    _parse_weight_mode returns) on a multifidelity allocation with one
    high-fidelity sample: its variance profile is all zeros, so the fitted
    weight would be 0 and every surrogate snapshot would be discarded
    without a trace."""
    if kind != "fixed" and m0 == 1 and m1 > 0:
        raise _UsageError(
            f"weight mode {kind!r} fits its weight to the paired samples and needs "
            f"m_0 >= 2, got m_0={m0}; use a fixed weight or more high-fidelity samples")


def _whole(share: float, cost: float) -> int:
    """floor(share / cost), the samples of one cost a budget share buys; a
    quotient within 1e-12 relative of a whole number is that number, so
    roundoff in the costs never forfeits the last sample of an exact multiple."""
    quotient = share / cost
    whole = round(quotient)
    return whole if abs(quotient - whole) <= 1e-12 * quotient else math.floor(quotient)


def allocate_budget(budget: float, costs: ModelCosts, policy: str) -> tuple[int, int]:
    """Sample counts (m_0, m_1) that the policy buys under the budget.

    Each count is the floor of a share over a cost (_whole), so hf_only,
    lf_only and fixed_m0 leave unspent less than one sample of the level
    they buy last; the even split buys m_0 = floor(B / 2 w_0) and
    m_1 = floor(w_0 / w_1) m_0.  Infeasible combinations (a multifidelity
    policy on a surrogate no cheaper than high fidelity, or that cannot
    afford m_1 > m_0 >= 1) are rejected.
    """
    if not (budget > 0 and np.isfinite(budget)):
        raise ValueError("budget must be positive and finite")
    kind, k = _parse_split(policy)
    if kind == "hf_only":
        m0 = _whole(budget, costs.high)
        if m0 < 1:
            raise ValueError(f"budget {budget} does not cover one high-fidelity sample")
        return m0, 0
    if kind == "lf_only":
        m1 = _whole(budget, costs.low)
        if m1 < 1:
            raise ValueError(f"budget {budget} does not cover one surrogate sample")
        return 0, m1
    if costs.low >= costs.high:  # validate_levels' cost order, which every repeat would fail
        raise ValueError(f"split {policy!r} needs a surrogate cheaper than high fidelity, "
                         f"got costs {costs.high} and {costs.low}")
    if kind == "even_split":
        m0 = _whole(budget / 2.0, costs.high)
        m1 = _whole(costs.high, costs.low) * m0
    else:  # fixed_m0
        m0 = k
        m1 = _whole(budget - k * costs.high, costs.low)
    if m0 < 1 or m1 <= m0:
        raise ValueError(
            f"budget {budget} with split {policy!r} yields m_0={m0}, m_1={m1}; "
            "a multifidelity run needs m_1 > m_0 >= 1"
        )
    return m0, m1


@dataclass(frozen=True)
class Reference:
    """Fixed snapshot set every study repeat is scored against.

    The snapshots t_i = F^T u_i (metric coordinates) enter only through
    their second moment S = (1/size) sum_i t_i t_i^T = Phi Lambda Phi^T,
    kept as its eigenpairs above a roundoff floor.  A metric-orthonormal
    mode v then captures ||weighted^T F^T v||^2 / trace of the snapshot energy.
    """

    weighted: np.ndarray  # Phi Lambda^(1/2) in metric coordinates, n x K
    eigvals: np.ndarray
    trace: float
    size: int
    metric: Metric
    model: AdvDiffConfig  # the model whose high-fidelity snapshots these are

    def energy_curve(self, dims: int) -> list[float]:
        """Best possible captured energy per dimension, from the spectrum."""
        return _percent_curve(self.eigvals, self.trace, dims)


def build_reference(model: AdvDiffConfig, size: int, top_modes: int = 40) -> Reference:
    """High-fidelity snapshots at the nodes of the size-cell midpoint rule for
    the uniform parameter law (_midpoints), kept as the eigen factor of their
    second moment; ``eigvals`` holds the leading top_modes eigenvalues, zero
    below the roundoff floor.  The rule weighs every node 1/size, and its
    error in the second moment is O(1/size^2).

    The n x n second moment S = (1/size) sum_i t_i t_i^T is never formed.
    The snapshots are solved _SPAN_BLOCK parameters at a time, and each block
    grows a Euclidean-orthonormal basis Q of their span in metric coordinates
    by the span's pivoted QR (_extend_span), while M = Q^T S Q accumulates
    from the coefficients it returns, so the eigenpairs of S are Q Y from one
    k x k eigh of M, where k is the span dimension.  Each block's rank rule
    takes its scale from the largest snapshot norm seen so far, and only one
    block of snapshots is held at a time.  Where _forks allows, a forked
    producer and this process take the blocks' solves from one ordered
    queue while this process grows their span in order (_solve_stream); both
    routes give the same bytes."""
    metric = fine_metric(model)
    thetas = _midpoints(size, model.theta_range)
    blocks = [thetas[start:start + _SPAN_BLOCK] for start in range(0, size, _SPAN_BLOCK)]
    no_lift = np.zeros((metric.n, 0))
    q, moment, energy, scale = no_lift, np.zeros((0, 0)), 0.0, 0.0
    stream = _solve_stream(blocks, lambda block: _reference_block(block, model, metric),
                           metric.n * _SPAN_BLOCK, _solve_seconds(len(blocks), metric.n * size))
    with contextlib.closing(stream):
        for t in stream:
            norms_sq = np.einsum("ij,ij->j", t, t)
            energy += float(norms_sq.sum())
            scale = max(scale, float(np.sqrt(norms_sq.max())))
            q, coeff = _extend_span(no_lift, q, t, scale)
            # earlier snapshots lie in span(Q) up to the rank rule
            moment = np.pad(moment, (0, q.shape[1] - len(moment)))
            moment += coeff @ coeff.T
    trace = energy / size
    if not trace > 0.0:
        raise ValueError("reference snapshots carry no energy")
    vals, vecs = scipy.linalg.eigh(moment / size, subset_by_value=(_REFERENCE_FLOOR * trace, np.inf))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    weighted = (q @ vecs) * np.sqrt(vals)
    eigvals = np.array(_pad(vals, max(1, min(top_modes, metric.n, size))))
    return Reference(weighted, eigvals, trace, size, metric, model)


def _midpoints(count: int, theta_range) -> np.ndarray:
    """The centres of count equal cells of theta_range, in increasing order."""
    if count < 1:
        raise ValueError("reference size must be positive")
    lo, hi = theta_range
    return lo + (hi - lo) * (np.arange(count) + 0.5) / count


def _reference_block(thetas: np.ndarray, model: AdvDiffConfig, metric: Metric) -> np.ndarray:
    return metric.to_coords(snapshot(thetas, "high", model))


def _solve_seconds(calls: int, entries: int) -> float:
    """Serial seconds of model solves that make this many solver calls and
    fill this many snapshot entries, at one core's prices: a per-parameter
    solve costs a call and its n entries, a block solve only its entries."""
    return calls * _CALL_S + entries * _ENTRY_S


def _forks(seconds: float) -> bool:
    """Whether a forked producer pays for a stream of this many seconds of
    serial solves (_solve_seconds): the stream is past break-even, fork
    exists, a second CPU is usable, and no other Python thread runs, whose
    locks the fork would copy held.  It reads only its argument and the
    process's start methods, CPUs and threads, never a clock."""
    return (seconds >= _FORK_BREAK_EVEN and _FORK is not None and threading.active_count() == 1
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def _solve_stream(items: list, solve, cells: int, seconds: float):
    """Generator of solve(item) for each item in order, where each result is
    a float array of at most ``cells`` entries and ``seconds`` prices the
    serial solves (_solve_seconds).  Consume it under contextlib.closing or
    a finally, so that an early stop ends its producer at once.

    Where _forks(seconds) is false the items are solved here, one by one.
    Otherwise two workers pull the items from one ordered queue: a forked
    daemon producer (_produce) and this process.  Both claim item indices in
    order from a counter in the header of a ring of _RING_SLOTS slots of
    ``cells`` floats, anonymous shared memory, under a fork-context lock.
    One pipe brings, in item order, the shape of each result the producer
    wrote to its slot, or the exception that stopped it; the other moves
    the producer's bound on each time this process takes its next item.
    When that item is not ready and this process holds no item ahead, it
    claims the next unclaimed item and solves it itself.  So solve must run
    in either process, and it must call no BLAS: at the default BLAS thread
    count a producer that does (a draw's eigh, say) competes with this
    process's BLAS threads and was measured slower than the serial loop.
    The producer runs solve and nothing else, on the CPUs this process is
    not on (_produce).  Each result arrives as a C-ordered copy, and an
    error is raised when its item's turn comes, so the one raised is the
    serial loop's.  Closing the pipes stops the producer within one item,
    and it is joined before the ring closes, whether the stream ends,
    raises or is closed early."""
    if not _forks(seconds):
        for item in items:
            yield solve(item)
        return
    ring = mmap.mmap(-1, _COUNTER.size + _RING_SLOTS * 8 * cells)
    lock = _FORK.Lock()  # unnamed under fork, so no resource_tracker starts
    full_r, full_w = _FORK.Pipe(duplex=False)
    free_r, free_w = _FORK.Pipe(duplex=False)
    away = os.sched_getaffinity(0) - {_cpu_now()}  # the CPUs this process is not on
    producer = _FORK.Process(target=_produce, daemon=True,
                             args=(items, solve, cells, away, ring, lock, full_w, free_r,
                                   full_r, free_w))
    held = None  # (index, result or exception) of an item this process solved
    try:
        producer.start()
        full_w.close()  # each side keeps only its own ends, so each sees the other stop
        free_r.close()
        for b in range(len(items)):
            if held is None and not full_r.poll():
                c = _claim(ring, lock, len(items))
                if c is not None:
                    try:
                        held = (c, solve(items[c]))
                    except Exception as exc:  # noqa: BLE001 - raised at item c's turn
                        held = (c, exc)
            if held is not None and held[0] == b:
                t, held = held[1], None
            else:  # the producer claimed item b, so its next message is b's
                try:
                    t = full_r.recv()
                except EOFError:
                    raise RuntimeError("the forked solve producer exited early") from None
                if not isinstance(t, BaseException):
                    t = _ring_slot(ring, b, t, cells).copy()
            if b + _RING_SLOTS < len(items):  # the producer's bound admits item b + _RING_SLOTS
                # a producer that stopped early says why on the other pipe
                with contextlib.suppress(BrokenPipeError):
                    free_w.send_bytes(b"\0")
            if isinstance(t, BaseException):
                raise t
            yield t
    finally:
        for end in (full_r, full_w, free_r, free_w):
            end.close()
        if producer.pid is not None:
            producer.join()
        ring.close()


def _claim(ring: mmap.mmap, lock, stop: int) -> int | None:
    """The next unclaimed item index from the ring's counter, now claimed,
    or None if it is not below stop."""
    with lock:
        (b,) = _COUNTER.unpack_from(ring)
        if b >= stop:
            return None
        _COUNTER.pack_into(ring, 0, b + 1)
    return b


def _ring_slot(ring: mmap.mmap, b: int, shape: tuple, cells: int) -> np.ndarray:
    """Item b's slot of a ring of ``cells``-float slots as a C-ordered array of that shape."""
    return np.ndarray(shape, buffer=ring, offset=_COUNTER.size + (b % _RING_SLOTS) * 8 * cells)


def _cpu_now() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _produce(items, solve, cells, away, ring, lock, full, free, *parent_ends) -> None:
    """The forked producer: it claims the next item index b while b is fewer
    than _RING_SLOTS past the item the parent takes next, writes solve(item)
    to slot b mod _RING_SLOTS and sends its shape, or the exception that
    stopped the solves.  Each byte from the parent moves that bound on by
    one item; EOF from the parent ends it.  It calls solve and nothing else
    of the library.

    It first binds itself to the CPUs in ``away``, those the parent was not
    on at the fork: each byte that wakes it would otherwise tend to move it
    onto the parent's CPU, and the two processes then took turns on one CPU
    (a 30-repeat verify pass read 1.3x its serial time)."""
    for end in parent_ends:
        end.close()  # else the pipe from the parent never reaches EOF
    if away:
        os.sched_setaffinity(0, away)
    bound = _RING_SLOTS
    try:
        while True:
            b = _claim(ring, lock, min(bound, len(items)))
            if b is None:
                if bound >= len(items):
                    return
                free.recv_bytes()
                bound += 1
                continue
            t = np.asarray(solve(items[b]), dtype=float)
            if t.size > cells:
                raise ValueError(f"item {b} has {t.size} entries, more than a slot's {cells}")
            _ring_slot(ring, b, t.shape, cells)[...] = t
            full.send(t.shape)
    except (EOFError, BrokenPipeError):
        pass  # the parent stopped the stream
    except Exception as exc:  # noqa: BLE001 - handed to the parent, which raises it
        with contextlib.suppress(BrokenPipeError):
            full.send(exc)


def _energy_curve(y: np.ndarray, weighted: np.ndarray, trace: float, dims: int) -> list[float]:
    """Captured energy curve of orthonormal modes y, given in the same
    orthonormal coordinates as ``weighted``, a reference factor of that trace."""
    coeff = y.T @ weighted
    return _percent_curve(np.einsum("ij,ij->i", coeff, coeff), trace, dims)


def _percent_curve(energies: np.ndarray, trace: float, dims: int) -> list[float]:
    """Percent of trace in the first r energies for r = 1..dims (all of them past the end)."""
    cum = np.concatenate(([0.0], np.cumsum(energies)))
    return [100.0 * float(cum[min(r, len(cum) - 1)] / trace) for r in range(1, dims + 1)]


def _fit_mfpod(sets, weight: tuple, kappa: float, metric: Metric) -> tuple[MfBasis, dict]:
    """Multifidelity basis under a parsed weight mode (_parse_weight_mode),
    with the weights used and, for the adaptive mode, why its mode search
    stopped.  Either mode fits on the one span built here, and the pilot
    weight is read off it."""
    kind, alpha = weight
    span = SnapshotSpan.from_sets(sets, metric)
    if kind == "adaptive":
        mf, trace = mfpod_adaptive(span, kappa, metric)
        return mf, {"alphas": list(trace.alphas), "termination": trace.termination}
    if kind == "pilot_alpha":
        alpha = optimal_alpha(span.profile(np.zeros((span.rank, 0))))[0]
    return mfpod_fixed(span, (alpha,), kappa, metric), {"alphas": [alpha]}


@dataclass
class StudyReport:
    """In-memory study result; see write_study for the on-disk layout."""

    config: StudyConfig
    pipeline: str
    m0: int
    m1: int
    repeats: list
    aggregates: dict
    reference: dict
    failures: list
    timings: list

    def to_payload(self) -> dict:
        """Deterministic JSON payload (timings deliberately excluded); run_study
        fills every field but the config with JSON-native values."""
        return {
            "config": _jsonable(asdict(self.config)),
            "pipeline": self.pipeline,
            "allocation": {"m0": self.m0, "m1": self.m1},
            "repeats": self.repeats,
            "aggregates": self.aggregates,
            "reference": self.reference,
            "failures": self.failures,
        }


def _jsonable(obj):
    """obj in strict JSON values: str keys, lists for tuples and arrays, native
    scalars, and None (null) for a non-finite float, which RFC 8259 cannot write."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _percentile_rows(matrix: np.ndarray) -> dict:
    """Nearest-rank percentiles per column of a repeats x dims matrix."""
    rows = np.percentile(matrix, _PERCENTILES, axis=0, method="inverted_cdf")
    return {f"p{p}": row.tolist() for p, row in zip(_PERCENTILES, rows)}


def run_study(config: StudyConfig, reference: Reference | None = None) -> StudyReport:
    """Run the configured study and aggregate its repeats.

    A precomputed ``reference`` can be shared across studies; otherwise one
    is built here.  The budget is allocated, a pilot or adaptive weight on an
    allocation with m_0 = 1 rejected, and a shared reference checked
    (_check_reference), each raising ValueError, before the model pair is
    built.  A repeat that fails numerically (ValueError, which includes
    LinAlgError, or ArithmeticError) is recorded and skipped, but more than
    half failing aborts the study; any other exception propagates.
    """
    model = config.model
    m0, m1 = allocate_budget(config.budget, ModelCosts.from_config(model), config.split)
    weight = _parse_weight_mode(config.weight_mode)
    _check_weight_samples(weight[0], m0, m1)
    if reference is not None:
        _check_reference(reference, config)
    pair = make_model_pair(model)
    if reference is None:
        reference = build_reference(model, config.reference_size, max(config.report_dims, 40))
    metric = reference.metric
    pipeline = "pod_hf" if m1 == 0 else "pod_lf" if m0 == 0 else "mfpod"
    # a repeat that reads the surrogate starts its span from the pair's Q_L: one Q_L^T weighted
    lift = pair.lift.basis if pair.lift is not None and m1 else np.zeros((metric.n, 0))
    head = lift.T @ reference.weighted

    records, failures, timings = [], [], []
    for rep in range(config.repeats):
        seed = _child_seed(config.master_seed, rep)
        started = time.perf_counter()
        try:
            records.append(_run_repeat(rep, seed, pair, metric, m0, m1, pipeline,
                                       config, reference, head, weight))
        except (ValueError, ArithmeticError) as exc:  # a numerical failure sinks one repeat only
            failures.append({"repeat": rep, "error": f"{type(exc).__name__}: {exc}"})
        timings.append(time.perf_counter() - started)
    if len(failures) > config.repeats / 2:
        raise RuntimeError(f"{len(failures)} of {config.repeats} repeats failed, first with "
                           f"{failures[0]['error']}; aborting study")

    # past the abort above, at least one repeat succeeded
    aggregates = {key: _percentile_rows(np.array([rec[key] for rec in records]))
                  for key in ("captured_energy", "eigvals")}
    for key in ("mode_count", "selected_r"):
        values = np.array([rec[key] for rec in records])
        aggregates[key] = {"min": int(values.min()), "median": float(np.median(values)),
                           "max": int(values.max())}
    reference_info = {
        "size": int(reference.size),  # reference_size may be a numpy integer
        "eigvals": reference.eigvals.tolist(),
        "energy_curve": reference.energy_curve(config.report_dims),
    }
    return StudyReport(
        config=config, pipeline=pipeline, m0=m0, m1=m1, repeats=records,
        aggregates=aggregates, reference=reference_info, failures=failures,
        timings=timings,
    )


def _check_reference(reference: Reference, config: StudyConfig) -> None:
    """Reject a reference of another high-fidelity model, or one whose top_modes
    cut its spectrum below report_dims; its surrogate mesh may differ."""
    model, built = config.model, reference.model
    if built.n_hf != model.n_hf:
        raise ValueError(f"reference has dimension {reference.metric.n} but the model has "
                         f"n_hf={model.n_hf}")
    ours, theirs = ({"theta_range": tuple(c.theta_range), "bc": tuple(c.bc),
                     "advection_sign": c.advection_sign} for c in (model, built))
    for name in ours:
        if ours[name] != theirs[name]:
            raise ValueError(f"reference was built for {name}={theirs[name]!r} but the model "
                             f"has {ours[name]!r}")
    # past min(n, size) the spectrum is exactly zero, so fewer eigenvalues miss nothing
    kept, wanted = len(reference.eigvals), min(config.report_dims, built.n_hf, reference.size)
    if kept < wanted:
        raise ValueError(f"reference keeps {kept} eigenvalues, fewer than report_dims="
                         f"{config.report_dims}; build it with top_modes >= {wanted}")


def _run_repeat(rep, seed, pair, metric, m0, m1, pipeline, config, reference,
                head, weight) -> dict:
    """One repeat's record; ``head`` is Q_L^T reference.weighted for its span's
    lift part Q_L, and ``weight`` the parsed config.weight_mode."""
    dims = config.report_dims
    record = {"repeat": rep, "seed": seed, "m0": m0, "m1": m1}
    _, hf, lf = _draw(pair, m0, m1, seed, lifted=True)  # lf in the coarse space of pair.lift
    if pipeline == "mfpod":
        sets = SnapshotSet.two_level(hf, lf, pair.costs.high, pair.costs.low, pair.lift)
        mf, weights = _fit_mfpod(sets, weight, config.kappa, metric)
        record.update(weights, correction_count=mf.correction_count,
                      energy_fraction=mf.energy_fraction, raw_eigvals=_pad(mf.raw_eigvals, dims))
    else:
        mf = (pod(hf, metric) if pipeline == "pod_hf" else pod(lf, metric, pair.lift)).modes
        record["alphas"] = []
    # scored in span coordinates: Q^T weighted = [Q_L^T weighted; N^T weighted]
    weighted = np.vstack([head, mf._span._parts[1].T @ reference.weighted])
    record.update({
        "mode_count": mf.mode_count,
        "selected_r": select_dim(mf.corrected_eigvals, config.kappa),
        "eigvals": _pad(mf.corrected_eigvals, dims),
        "captured_energy": _energy_curve(mf._y[:, :dims], weighted, reference.trace, dims),
    })
    return record


def _pad(values: np.ndarray, dims: int) -> list[float]:
    out = [0.0] * dims
    for i, v in enumerate(values[:dims]):
        out[i] = float(v)
    return out


# ---------------------------------------------------------------------------
# Snapshot files (MFP1): 24-byte header, then float64 column-major payload.
# Bytes 0-3 magic "MFPS", 4-7 u32 version, 8-15 u64 rows, 16-23 u64 columns,
# all little endian.


class MfpFileError(ValueError):
    """Raised for malformed snapshot files."""


def write_snapshots(path, matrix) -> None:
    """Write a snapshot matrix atomically in the MFP1 layout."""
    a = np.ascontiguousarray(_as_matrix(matrix).astype("<f8"))
    n, m = a.shape
    header = _MAGIC + struct.pack("<I", _VERSION) + struct.pack("<QQ", n, m)
    _atomic_write(path, header + a.tobytes(order="F"))


def read_snapshots(path) -> np.ndarray:
    """Read an MFP1 snapshot file back into an (n, m) array."""
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24 or header[:4] != _MAGIC:
            raise MfpFileError(f"{path}: not a snapshot file (bad magic or truncated header)")
        (version,) = struct.unpack("<I", header[4:8])
        if version != _VERSION:
            raise MfpFileError(f"{path}: unsupported version {version}")
        n, m = struct.unpack("<QQ", header[8:24])
        payload = os.fstat(fh.fileno()).st_size - 24
        if payload != 8 * n * m:
            raise MfpFileError(f"{path}: payload has {payload} bytes, expected {8 * n * m}")
        data = np.fromfile(fh, dtype="<f8", count=n * m)
    return data.reshape((n, m), order="F").astype(float, copy=False)


def _atomic_write(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def generate_snapshot_files(config: StudyConfig, outdir) -> list:
    """One deterministic snapshot draw written as MFP1 files plus a manifest.

    Produces snapshots_high.mfp1 and/or snapshots_low.mfp1 according to
    the split, and manifest.json describing the draw; a split's other file goes.
    """
    model = config.model
    m0, m1 = allocate_budget(config.budget, ModelCosts.from_config(model), config.split)
    pair = make_model_pair(model)
    thetas, hf, lf = _draw(pair, m0, m1, config.master_seed)
    os.makedirs(outdir, exist_ok=True)
    written = []
    manifest = {
        "model": asdict(model),
        "budget": config.budget,
        "split": config.split,
        "master_seed": config.master_seed,
        "m0": m0,
        "m1": m1,
        "costs": {"high": pair.costs.high, "low": pair.costs.low},
        "thetas": list(thetas),
        "format": "MFP1",
    }
    for name, snaps in (("snapshots_high.mfp1", hf), ("snapshots_low.mfp1", lf)):
        path = os.path.join(outdir, name)
        if snaps.shape[1]:
            write_snapshots(path, snaps)
            written.append(path)
        else:  # an earlier draw's file would contradict this manifest
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    manifest_path = os.path.join(outdir, "manifest.json")
    _atomic_write(manifest_path, _dump_json(_jsonable(manifest)).encode())
    written.append(manifest_path)
    return written


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_study(report: StudyReport, outdir) -> list:
    """Write report.json, the metric CSVs, and timings.csv.

    Everything except timings.csv is byte-deterministic for a fixed
    master seed.  A pipeline with no raw eigenvalues removes their file.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []

    def emit(name, text):
        path = os.path.join(outdir, name)
        _atomic_write(path, text.encode())
        written.append(path)

    emit("report.json", _dump_json(report.to_payload()))
    header = ["repeat"] + [f"r{j}" for j in range(1, report.config.report_dims + 1)]
    for name, key in (("captured_energy.csv", "captured_energy"), ("eigenvalues.csv", "eigvals"),
                      ("raw_eigenvalues.csv", "raw_eigvals")):
        if key != "raw_eigvals" or report.pipeline == "mfpod":
            emit(name, _csv(header, ([rec["repeat"], *rec[key]] for rec in report.repeats)))
        else:  # an earlier study's file would sit beside this report
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(outdir, name))
    scalars = ["repeat", "seed", "m0", "m1", "mode_count", "selected_r"]
    emit("repeats.csv", _csv(scalars + ["alphas"], (
        [rec[c] for c in scalars] + [";".join(repr(float(a)) for a in rec["alphas"])]
        for rec in report.repeats)))
    emit("timings.csv", _csv(["repeat", "seconds"],
                             ([i, f"{t:.6f}"] for i, t in enumerate(report.timings))))
    return written


def _csv(header: list, rows) -> str:
    """CSV text of a header and rows of cells: a float cell as its repr, any other by str."""
    return "".join(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                            for v in row) + "\n" for row in [header, *rows])
