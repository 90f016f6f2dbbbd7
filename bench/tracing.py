"""Span tracing of mfpod's layers, installed from outside the library.

Each hook replaces one public function where its caller looks it up (for
example ``mfpod.experiment.mfpod_fixed``, which is the name run_study
calls) with a wrapper that records a span and, optionally, counts read
from the call's arguments and return value.  Spans stay in memory as
``[name, start, end, parent]`` lists and are written out by the caller
when the run ends.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, list] = {}  # metric name -> observed values
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` wrapped in a span; ``name`` may be a function of (args, kwargs)."""
        spans, open_, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            label = name(args, kwargs) if callable(name) else name
            spans.append([label, time.perf_counter(), None, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts.setdefault(key, []).append(value)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total duration and total self time."""
    out: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += own
    return out


# -- counts read at the hooked boundaries -------------------------------------


def mgs_flops(n: int, k: int, kept: int) -> int:
    """Computed flops of core.orthonormalize on an n x k block of rank ``kept``.

    Two Gram-Schmidt passes per column against the columns kept so far
    (Q^T w, then Q c, then the subtraction), then a norm and a scaling.
    Assumes the kept columns come first and leaves out the metric apply,
    which is free in the Euclidean coordinates the hot paths use.
    """
    return sum(2 * (4 * n * min(j, kept) + n) + 3 * n for j in range(k))


def _orthonormalize_counts(args, kwargs, result):
    n, k = args[0].shape if args[0].ndim == 2 else (args[0].shape[0], 1)
    return {
        "core.orthonormalize.cols": k,
        "core.orthonormalize.rank": result.dim,
        "core.orthonormalize.flops": mgs_flops(n, k, result.dim),
    }


def _mfpod_fixed_counts(args, kwargs, result):
    return {"mfpod.corrected": result.correction_count, "mfpod.modes": result.mode_count}


def _score_counts(args, kwargs, report):
    """Scoring GEMM of run_study: (modes kept up to report_dims)^T times W.U."""
    reference = args[1]
    n, size = reference.weighted.shape
    dims = report.config.report_dims
    flops = nbytes = 0
    for rec in report.repeats:
        d = min(dims, rec["mode_count"])
        if d:
            flops += 2 * n * d * size
            nbytes += 8 * (n * size + n * d + d * size)
    return {"experiment.score.flops": flops, "experiment.score.bytes": nbytes}


def _gram_flops(n: int, size: int) -> int:
    return 2 * n * n * size if size >= n else 2 * n * size * size


def _draws(args, kwargs, result):
    return {"models.sample_parameters.draws": len(result)}


def _snapshot_name(args, kwargs):
    fidelity = args[1] if len(args) > 1 else kwargs.get("fidelity")
    return f"models.snapshot_{fidelity}"


# (owner, attribute, span name, counts).  Owners are the namespaces the
# callers look the names up in, so every call made by the library is seen.
HOOKS = [
    ("mfpod.experiment", "build_reference", "experiment.build_reference",
     lambda a, kw, r: {"experiment.build_reference.gram_flops": _gram_flops(a[0].n_hf, a[1])}),
    ("mfpod.experiment", "run_study", "experiment.run_study", _score_counts),
    ("mfpod.experiment", "write_study", "experiment.write_study",
     lambda a, kw, r: {"experiment.write_study.bytes": sum(os.path.getsize(p) for p in r)}),
    ("mfpod.experiment", "mfpod_fixed", "mfpod.mfpod_fixed", _mfpod_fixed_counts),
    ("mfpod.experiment", "mfpod_adaptive", "adaptive.mfpod_adaptive",
     lambda a, kw, r: {"adaptive.steps": len(r[1].steps)}),
    ("mfpod.experiment", "pod", "pod.pod",
     lambda a, kw, r: {"pod.cols": a[0].shape[1], "pod.kept": r.basis.dim}),
    ("mfpod.experiment", "estimate_profile", "estimator.estimate_profile", None),
    ("mfpod.adaptive", "estimate_profile", "estimator.estimate_profile", None),
    ("mfpod.experiment", "sample_parameters", "models.sample_parameters", _draws),
    ("mfpod.models", "sample_parameters", "models.sample_parameters", _draws),
    ("mfpod.experiment", "snapshot", _snapshot_name, None),
    ("mfpod.models", "snapshot", _snapshot_name, None),
    ("mfpod.mfpod", "lowrank_eig", "solver.lowrank_eig",
     lambda a, kw, r: {"solver.lowrank_eig.pairs": r.count}),
    ("mfpod.solver", "orthonormalize", "core.orthonormalize", _orthonormalize_counts),
    ("mfpod.mfpod", "orthonormalize", "core.orthonormalize", _orthonormalize_counts),
    ("mfpod.adaptive", "orthonormalize", "core.orthonormalize", _orthonormalize_counts),
    ("mfpod.pod", "orthonormalize", "core.orthonormalize", _orthonormalize_counts),
    ("mfpod.core.Metric", "to_coords", "core.to_coords", None),
    ("mfpod.verify", "reference_matrix", "verify.reference_matrix",
     lambda a, kw, r: {"verify.reference_matrix.gram_flops": _gram_flops(r.shape[0], a[1])}),
    ("mfpod.verify", "convergence_study", "verify.convergence_study", None),
    ("mfpod.verify", "eigenvalue_sum_mse", "verify.eigenvalue_sum_mse", None),
    ("mfpod.verify", "build_operator", "verify.build_operator", None),
    ("mfpod.mfpod.MfOperator", "assemble_transformed", "mfpod.MfOperator.assemble_transformed", None),
]


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


@contextmanager
def installed(tracer: Tracer):
    """Route every hooked name through ``tracer`` until the block exits."""
    saved = []
    try:
        for owner_path, attr, name, count in HOOKS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

_TIMED = {
    # span name: the span fields reported for it
    "core.orthonormalize": ("calls", "s"),
    "solver.lowrank_eig": ("calls", "self_s"),
    "mfpod.mfpod_fixed": ("calls", "s", "self_s"),
    "adaptive.mfpod_adaptive": ("calls", "s", "self_s"),
    "estimator.estimate_profile": ("calls", "s"),
    "pod.pod": ("calls", "s", "self_s"),
    "models.snapshot_high": ("calls", "s"),
    "models.snapshot_low": ("calls", "s"),
    "models.sample_parameters": ("s",),
    "core.to_coords": ("s",),
    "experiment.build_reference": ("s",),
    "experiment.run_study": ("self_s",),
    "experiment.write_study": ("s",),
    "verify.reference_matrix": ("s",),
    "verify.convergence_study": ("s",),
    "verify.eigenvalue_sum_mse": ("s",),
    "verify.build_operator": ("calls",),
    "mfpod.MfOperator.assemble_transformed": ("s",),
}

_SUMMED = (
    "core.orthonormalize.flops",
    "adaptive.steps",
    "models.sample_parameters.draws",
    "experiment.build_reference.gram_flops",
    "experiment.score.flops",
    "experiment.score.bytes",
    "experiment.write_study.bytes",
    "verify.reference_matrix.gram_flops",
)


def _ratio(counts, num: str, den: str) -> float:
    total = sum(counts.get(den, ()))
    return sum(counts.get(num, ())) / total if total else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric; zero where the workload never enters the layer."""
    spans = summarize(tracer.spans)
    counts = tracer.counts
    out: dict[str, float] = {}
    for name, fields in _TIMED.items():
        row = spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field in fields:
            out[f"{name}.{field}"] = row[field]
    for key in _SUMMED:
        out[key] = sum(counts.get(key, ()))
    out["core.orthonormalize.kept_frac"] = _ratio(
        counts, "core.orthonormalize.rank", "core.orthonormalize.cols")
    out["pod.kept_frac"] = _ratio(counts, "pod.kept", "pod.cols")
    out["mfpod.repair_frac"] = _ratio(counts, "mfpod.corrected", "solver.lowrank_eig.pairs")
    modes = counts.get("mfpod.modes")
    out["mfpod.modes_p50"] = float(statistics.median(modes)) if modes else 0.0
    return out

