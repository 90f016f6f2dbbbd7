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

import json
import math
import os
import struct
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from .adaptive import mfpod_adaptive
from .core import Metric, SnapshotSet, _as_matrix
from .estimator import optimal_alpha
from .mfpod import _SPAN_BLOCK, MfBasis, SnapshotSpan, _extend_span, mfpod_fixed, select_dim
from .mfpod import estimate_profile  # noqa: F401 - a name the benchmark's tracing hooks resolve
from .models import (
    AdvDiffConfig,
    ModelCosts,
    _child_seed,
    _draw,
    equispaced_parameters,
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
        if not (self.budget > 0 and np.isfinite(self.budget)):
            raise ValueError("budget must be positive and finite")
        if not 0 < self.kappa <= 1:
            raise ValueError("kappa must lie in (0, 1]")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        if self.reference_size < 1 or self.report_dims < 1:
            raise ValueError("reference_size and report_dims must be positive")
        _parse_split(self.split)
        _parse_weight_mode(self.weight_mode)


def _parse_split(split: str) -> tuple[str, int | None]:
    if split in ("even_split", "hf_only", "lf_only"):
        return split, None
    if split.startswith("fixed_m0:"):
        try:
            k = int(split.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed_m0 split {split!r}, expected fixed_m0:<int>") from None
        if k < 1:
            raise ValueError("fixed_m0 split needs a positive high-fidelity count")
        return "fixed_m0", k
    raise ValueError(f"unknown split policy {split!r}")


def _parse_weight_mode(mode: str) -> tuple[str, float | None]:
    if mode in ("pilot_alpha", "adaptive"):
        return mode, None
    if mode.startswith("fixed:"):
        try:
            alpha = float(mode.split(":", 1)[1])
        except ValueError:
            alpha = float("nan")
        if not np.isfinite(alpha):
            raise ValueError(f"bad weight mode {mode!r}, expected fixed:<finite float>")
        return "fixed", alpha
    raise ValueError(f"unknown weight mode {mode!r}")


def _check_weight_samples(weight_mode: str, m0: int, m1: int) -> None:
    """Reject a fitted weight (pilot or adaptive) on a multifidelity
    allocation with one high-fidelity sample: its variance profile is all
    zeros, so the fitted weight would be 0 and every surrogate snapshot
    would be discarded without a trace."""
    kind, _ = _parse_weight_mode(weight_mode)
    if kind != "fixed" and m0 == 1 and m1 > 0:
        raise ValueError(f"weight mode {weight_mode!r} fits its weight to the paired samples "
                         f"and needs m_0 >= 2, got m_0={m0}; use a fixed weight or more "
                         "high-fidelity samples")


def allocate_budget(budget: float, costs: ModelCosts, policy: str) -> tuple[int, int]:
    """Sample counts (m_0, m_1) that the policy buys under the budget.

    Unspent remainder smaller than one sample of the relevant level is
    forfeited; infeasible combinations (a multifidelity policy that cannot
    afford m_1 > m_0 >= 1) are rejected.
    """
    if not (budget > 0 and np.isfinite(budget)):
        raise ValueError("budget must be positive and finite")
    kind, k = _parse_split(policy)
    ratio = math.floor(costs.high / costs.low)
    if kind == "hf_only":
        m0 = math.floor(budget / costs.high)
        if m0 < 1:
            raise ValueError(f"budget {budget} does not cover one high-fidelity sample")
        return m0, 0
    if kind == "lf_only":
        m1 = math.floor(ratio * budget)
        if m1 < 1:
            raise ValueError(f"budget {budget} does not cover one surrogate sample")
        return 0, m1
    if kind == "even_split":
        m0 = math.floor(budget / (2.0 * costs.high))
        m1 = ratio * m0
    else:  # fixed_m0
        m0 = k
        m1 = math.floor((budget - k * costs.high) / costs.low)
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

    def energy_curve(self, dims: int) -> list[float]:
        """Best possible captured energy per dimension, from the spectrum."""
        return _percent_curve(self.eigvals, self.trace, dims)


def build_reference(model: AdvDiffConfig, size: int, top_modes: int = 40) -> Reference:
    """High-fidelity snapshots at equispaced parameters, kept as the eigen
    factor of their second moment; ``eigvals`` holds the leading top_modes
    eigenvalues, zero below the roundoff floor.

    The n x n second moment S = (1/size) sum_i t_i t_i^T is never formed.
    The snapshots are solved _SPAN_BLOCK parameters at a time, and each block
    grows a Euclidean-orthonormal basis Q of their span in metric coordinates
    by the span's pivoted QR (_extend_span), while M = Q^T S Q accumulates
    from the coefficients it returns, so the eigenpairs of S are Q Y from one
    k x k eigh of M, where k is the span dimension.  Each block's rank rule
    takes its scale from the largest snapshot norm seen so far, and only one
    block of snapshots is held at a time."""
    metric = fine_metric(model)
    thetas = equispaced_parameters(size, model.theta_range)
    euclid = Metric.euclidean(metric.n)
    q, moment, energy, scale = np.zeros((metric.n, 0)), np.zeros((0, 0)), 0.0, 0.0
    for start in range(0, size, _SPAN_BLOCK):
        t = metric.to_coords(snapshot(thetas[start:start + _SPAN_BLOCK], "high", model))
        norms_sq = euclid.norms_sq(t)
        energy += float(norms_sq.sum())
        scale = max(scale, float(np.sqrt(norms_sq.max())))
        q, coeff = _extend_span(q, t, scale)
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
    return Reference(weighted, eigvals, trace, size, metric)


def _energy_curve(coords: np.ndarray, reference: Reference, dims: int) -> list[float]:
    coeff = coords.T @ reference.weighted
    return _percent_curve(np.einsum("ij,ij->i", coeff, coeff), reference.trace, dims)


def _percent_curve(energies: np.ndarray, trace: float, dims: int) -> list[float]:
    """Percent of trace in the first r energies for r = 1..dims (all of them past the end)."""
    cum = np.concatenate(([0.0], np.cumsum(energies)))
    return [100.0 * float(cum[min(r, len(cum) - 1)] / trace) for r in range(1, dims + 1)]


def _fit_mfpod(sets, weight_mode: str, kappa: float, metric: Metric) -> tuple[MfBasis, dict]:
    """Multifidelity basis under a StudyConfig weight mode, with the weights
    used and, for the adaptive mode, why its mode search stopped.  Either
    mode fits on the one span built here, and the pilot weight is read off it."""
    kind, alpha = _parse_weight_mode(weight_mode)
    span = SnapshotSpan.from_sets(sets, metric)
    if kind == "adaptive":
        mf, trace = mfpod_adaptive(span, kappa, metric)
        return mf, {"alphas": [float(a) for a in trace.alphas], "termination": trace.termination}
    if kind == "pilot_alpha":
        alpha = optimal_alpha(span.profile(np.zeros((span.rank, 0))))[0]
    return mfpod_fixed(span, (alpha,), kappa, metric), {"alphas": [float(alpha)]}


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
        """Deterministic JSON payload (timings deliberately excluded)."""
        return _jsonable({
            "config": asdict(self.config),
            "pipeline": self.pipeline,
            "allocation": {"m0": self.m0, "m1": self.m1},
            "repeats": self.repeats,
            "aggregates": self.aggregates,
            "reference": self.reference,
            "failures": self.failures,
        })


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _percentile_rows(matrix: np.ndarray) -> dict:
    """Nearest-rank percentiles per column of a repeats x dims matrix."""
    rows = np.percentile(matrix, _PERCENTILES, axis=0, method="inverted_cdf")
    return {f"p{p}": row.tolist() for p, row in zip(_PERCENTILES, rows)}


def run_study(config: StudyConfig, reference: Reference | None = None) -> StudyReport:
    """Run the configured study and aggregate its repeats.

    A precomputed ``reference`` (from build_reference on the same model)
    can be shared across studies; otherwise one is built here.  A pilot or
    adaptive weight on an allocation with m_0 = 1 is rejected (ValueError)
    before any repeat runs.  A repeat that fails numerically (ValueError,
    which includes LinAlgError, or ArithmeticError) is recorded and
    skipped, but more than half failing aborts the study; any other
    exception propagates.
    """
    model = config.model
    pair = make_model_pair(model)
    m0, m1 = allocate_budget(config.budget, pair.costs, config.split)
    _check_weight_samples(config.weight_mode, m0, m1)
    split_kind, _ = _parse_split(config.split)
    if reference is None:
        reference = build_reference(model, config.reference_size, max(config.report_dims, 40))
    metric = reference.metric
    if metric.n != model.n_hf:
        raise ValueError(f"reference has dimension {metric.n} but the model has n_hf={model.n_hf}")
    pipeline = {"hf_only": "pod_hf", "lf_only": "pod_lf"}.get(split_kind, "mfpod")

    records, failures, timings = [], [], []
    for rep in range(config.repeats):
        seed = _child_seed(config.master_seed, rep)
        started = time.perf_counter()
        try:
            records.append(_run_repeat(rep, seed, pair, metric, m0, m1, pipeline,
                                       config, reference))
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
        "size": reference.size,
        "eigvals": reference.eigvals,
        "energy_curve": reference.energy_curve(config.report_dims),
    }
    return StudyReport(
        config=config, pipeline=pipeline, m0=m0, m1=m1, repeats=records,
        aggregates=aggregates, reference=reference_info, failures=failures,
        timings=timings,
    )


def _run_repeat(rep, seed, pair, metric, m0, m1, pipeline, config, reference) -> dict:
    dims = config.report_dims
    record = {"repeat": rep, "seed": seed, "m0": m0, "m1": m1}
    _, hf, lf = _draw(pair, m0, m1, seed, lifted=True)  # lf in the coarse space of pair.lift
    if pipeline == "mfpod":
        sets = SnapshotSet.two_level(hf, lf, pair.costs.high, pair.costs.low, pair.lift)
        mf, weights = _fit_mfpod(sets, config.weight_mode, config.kappa, metric)
        record.update(weights, correction_count=mf.correction_count,
                      energy_fraction=mf.energy_fraction, raw_eigvals=_pad(mf.raw_eigvals, dims))
    else:
        mf = (pod(hf, metric) if pipeline == "pod_hf" else pod(lf, metric, pair.lift)).modes
        record["alphas"] = []
    record.update({
        "mode_count": mf.mode_count,
        "selected_r": select_dim(mf.corrected_eigvals, config.kappa),
        "eigvals": _pad(mf.corrected_eigvals, dims),
        "captured_energy": _energy_curve(mf.coords[:, :dims], reference, dims),
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
    the split, and manifest.json describing the draw.
    """
    model = config.model
    pair = make_model_pair(model)
    m0, m1 = allocate_budget(config.budget, pair.costs, config.split)
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
        if snaps.shape[1]:
            path = os.path.join(outdir, name)
            write_snapshots(path, snaps)
            written.append(path)
    manifest_path = os.path.join(outdir, "manifest.json")
    _atomic_write(manifest_path, _dump_json(_jsonable(manifest)).encode())
    written.append(manifest_path)
    return written


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_study(report: StudyReport, outdir) -> list:
    """Write report.json, the metric CSVs, and timings.csv.

    Everything except timings.csv is byte-deterministic for a fixed
    master seed.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []

    def emit(name, text):
        path = os.path.join(outdir, name)
        _atomic_write(path, text.encode())
        written.append(path)

    emit("report.json", _dump_json(report.to_payload()))
    dims = report.config.report_dims
    header = "repeat," + ",".join(f"r{j}" for j in range(1, dims + 1))
    emit("captured_energy.csv", _csv(header, report.repeats, "captured_energy"))
    emit("eigenvalues.csv", _csv(header, report.repeats, "eigvals"))
    if report.pipeline == "mfpod":
        emit("raw_eigenvalues.csv", _csv(header, report.repeats, "raw_eigvals"))
    scalar_cols = ["seed", "m0", "m1", "mode_count", "selected_r"]
    lines = ["repeat," + ",".join(scalar_cols + ["alphas"])]
    for rec in report.repeats:
        cells = [str(rec["repeat"])] + [repr(rec[c]) if isinstance(rec[c], float) else str(rec[c])
                                        for c in scalar_cols]
        cells.append(";".join(repr(float(a)) for a in rec["alphas"]))
        lines.append(",".join(cells))
    emit("repeats.csv", "\n".join(lines) + "\n")
    emit("timings.csv", "\n".join(
        ["repeat,seconds"] + [f"{i},{t:.6f}" for i, t in enumerate(report.timings)]
    ) + "\n")
    return written


def _csv(header: str, records: list, key: str) -> str:
    lines = [header]
    for rec in records:
        lines.append(",".join([str(rec["repeat"])] + [repr(float(v)) for v in rec[key]]))
    return "\n".join(lines) + "\n"
