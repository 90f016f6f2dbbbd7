"""Command-line front end.

Subcommands: generate (snapshot files), pod, mfpod, study, verify.  Every
command prints a JSON summary on stdout; failures print a machine-readable
JSON object on stderr and exit nonzero (2 for usage errors, 1 otherwise).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .core import Metric, SnapshotSet, _UsageError
from .experiment import (
    StudyConfig,
    _atomic_write,
    _check_weight_samples,
    _csv,
    _dump_json,
    _fit_mfpod,
    _jsonable,
    _parse_weight_mode,
    generate_snapshot_files,
    read_snapshots,
    run_study,
    write_snapshots,
    write_study,
)
from .mfpod import _DENSE_CAP, select_dim
from .models import AdvDiffConfig, ModelCosts, _mass_metric, make_model_pair
from .pod import pod
from .verify import _check_grid, _check_r, convergence_study, eigenvalue_sum_mse, reference_matrix

_SPLITS = {"even": "even_split", "hf-only": "hf_only", "lf-only": "lf_only"}
_MODELS = {"literal": "literal", "boundary-layer": "boundary_layer"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as JSON on stderr."""

    def error(self, message):
        _emit_error(message, "usage")
        raise SystemExit(2)


def _emit_error(message: str, kind: str) -> None:
    sys.stderr.write(json.dumps({"error": message, "kind": kind}) + "\n")


def _print(payload: dict) -> None:
    sys.stdout.write(_dump_json(payload))


def _split_policy(text: str) -> str:
    if text in _SPLITS:
        return _SPLITS[text]
    if text.startswith("m0="):
        return "fixed_m0:" + text[3:]
    raise _UsageError(f"unknown split {text!r}; expected even, m0=K, hf-only, or lf-only")


def _weight_mode(alpha: str) -> str:
    """The weight mode an --alpha names; its reader checks it (_parse_weight_mode)."""
    try:
        return {"pilot": "pilot_alpha", "adaptive": "adaptive"}.get(alpha) or f"fixed:{float(alpha)}"
    except ValueError:
        raise _UsageError(
            f"bad --alpha {alpha!r}; expected a finite number, 'pilot', or 'adaptive'") from None


def _study_config(args, **fields) -> StudyConfig:
    return StudyConfig(budget=args.budget, split=_split_policy(args.split),
                       master_seed=args.seed, model=_model_config(args), **fields)


def _model_config(args) -> AdvDiffConfig:
    return AdvDiffConfig(n_hf=args.n_hf, n_lf=args.n_lf, advection_sign=_MODELS[args.model])


def _metric_for(n: int, kind: str) -> Metric:
    if kind == "euclidean":
        return Metric.euclidean(n)
    return _mass_metric(n)


def _add_model_flags(p, n_hf=4097, n_lf=33):
    p.add_argument("--model", choices=sorted(_MODELS), default="boundary-layer")
    p.add_argument("--n-hf", type=int, default=n_hf)
    p.add_argument("--n-lf", type=int, default=n_lf)


def build_parser() -> _Parser:
    parser = _Parser(prog="mfpod", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="draw snapshots and write MFP1 files")
    g.add_argument("--budget", type=float, required=True)
    g.add_argument("--split", default="even")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    _add_model_flags(g)

    p = sub.add_parser("pod", help="POD of one snapshot file")
    p.add_argument("--input", required=True)
    p.add_argument("--kappa", type=float, default=0.9999)
    p.add_argument("--metric", choices=("mass", "euclidean"), default="mass")
    p.add_argument("--out", required=True)

    m = sub.add_parser("mfpod", help="multifidelity POD of two snapshot files")
    m.add_argument("--hf", required=True)
    m.add_argument("--lf", required=True)
    m.add_argument("--alpha", default="pilot")
    m.add_argument("--kappa", type=float, default=0.9999)
    m.add_argument("--metric", choices=("mass", "euclidean"), default="mass")
    m.add_argument("--out", required=True)

    s = sub.add_parser("study", help="repeated budgeted comparison against a reference")
    s.add_argument("--budget", type=float, required=True)
    s.add_argument("--split", default="even")
    s.add_argument("--alpha", default="pilot")
    s.add_argument("--kappa", type=float, default=0.9999)
    s.add_argument("--repeats", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--reference-size", type=int, default=10_000)
    s.add_argument("--report-dims", type=int, default=30)
    s.add_argument("--out", required=True)
    _add_model_flags(s)

    v = sub.add_parser("verify", help="operator convergence and eigenvalue-sum checks")
    v.add_argument("--check", choices=("convergence", "eigsum", "both"), default="both")
    v.add_argument("--q1", type=int, default=4)
    v.add_argument("--m0-grid", default="2,4,8,16,32")
    v.add_argument("--repeats", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--alpha", type=float, default=1.0)
    v.add_argument("--r", type=int, default=3)
    v.add_argument("--reference-size", type=int, default=10_000)
    v.add_argument("--out", default=None)
    _add_model_flags(v, n_hf=129, n_lf=17)
    return parser


def _cmd_generate(args) -> dict:
    config = _study_config(args)
    written = generate_snapshot_files(config, args.out)
    return {"written": written}


def _write_modes(outdir, vectors, **eigvals) -> list:
    """modes.mfp1 and eigenvalues.csv (index, then one column per keyword) in outdir."""
    os.makedirs(outdir, exist_ok=True)
    modes_path = os.path.join(outdir, "modes.mfp1")
    write_snapshots(modes_path, vectors)
    eig_path = os.path.join(outdir, "eigenvalues.csv")
    rows = ([i, *row] for i, row in enumerate(zip(*eigvals.values())))
    _atomic_write(eig_path, _csv(["index", *eigvals], rows).encode())
    return [modes_path, eig_path]


def _cmd_pod(args) -> dict:
    snaps = read_snapshots(args.input)
    if snaps.shape[1] < 1:
        raise _UsageError("the snapshot file holds no snapshots")
    metric = _metric_for(snaps.shape[0], args.metric)
    result = pod(snaps, metric)
    return {
        "written": _write_modes(args.out, result.basis.vectors, eigval=result.eigvals),
        "mode_count": result.basis.dim,
        "selected_r": select_dim(result.eigvals, args.kappa),
        "leading_eigvals": result.eigvals[:10].tolist(),
    }


def _cmd_mfpod(args) -> dict:
    weight = _parse_weight_mode(_weight_mode(args.alpha))  # before any file I/O
    hf = read_snapshots(args.hf)
    lf = read_snapshots(args.lf)
    if hf.shape[0] != lf.shape[0]:
        raise _UsageError("snapshot files have different state dimensions")
    m0, m1 = hf.shape[1], lf.shape[1]
    if m0 < 1:
        raise _UsageError("the high-fidelity file holds no snapshots")
    if m1 <= m0:
        raise _UsageError(f"need more surrogate than high-fidelity snapshots (got {m0}, {m1})")
    _check_weight_samples(weight[0], m0, m1)
    metric = _metric_for(hf.shape[0], args.metric)
    sets = SnapshotSet.two_level(hf, lf, ModelCosts().high, ModelCosts().low)
    mf, summary = _fit_mfpod(sets, weight, args.kappa, metric)
    summary.update({
        "written": _write_modes(args.out, mf.vectors, raw=mf.raw_eigvals,
                                corrected=mf.corrected_eigvals),
        "mode_count": mf.mode_count,
        "selected_r": mf.selected_dim,
        "correction_count": mf.correction_count,
    })
    return summary


def _cmd_study(args) -> dict:
    config = _study_config(
        args, weight_mode=_weight_mode(args.alpha), kappa=args.kappa, repeats=args.repeats,
        reference_size=args.reference_size, report_dims=args.report_dims,
    )
    report = run_study(config)  # checks the budget and weight before its reference build
    written = write_study(report, args.out)
    return {
        "written": written,
        "pipeline": report.pipeline,
        "m0": report.m0,
        "m1": report.m1,
        "failures": len(report.failures),
        "median_mode_count": report.aggregates["mode_count"]["median"],
    }


def _fields(result, *names) -> dict:
    """The named fields of a verify study as strict JSON values (_jsonable)."""
    return {name: _jsonable(getattr(result, name)) for name in names}


def _cmd_verify(args) -> dict:
    model = _model_config(args)  # every flag before the model pair and its reference
    grid = _check_grid(args.q1, args.m0_grid.split(","), args.repeats)
    if args.check != "convergence":
        _check_r(args.r, model.n_hf)
    if model.n_hf > _DENSE_CAP:
        raise _UsageError(f"--n-hf {model.n_hf} exceeds the dense cap {_DENSE_CAP}")
    if model.n_lf == model.n_hf:  # validate_levels' cost order, which only the draws would meet
        raise _UsageError("--n-lf must be below --n-hf, so that a surrogate solve costs less")
    if not math.isfinite(args.alpha) or args.reference_size < 1:
        raise _UsageError("--alpha must be finite and --reference-size positive")
    if args.seed < 0:
        raise _UsageError("--seed must be nonnegative")
    pair = make_model_pair(model)
    reference = reference_matrix(pair, args.reference_size, args.seed)
    conv = convergence_study(pair, args.q1, grid, args.repeats, args.seed, alpha=args.alpha,
                             reference=reference)
    out = _fields(conv, "m0_grid", "q1", "alpha")
    if args.check != "eigsum":
        out["convergence"] = _fields(conv, "mean_sq_errors", "slope", "gamma_hat", "exact")
    if args.check != "convergence":
        study = eigenvalue_sum_mse(pair, args.r, grid, args.repeats, args.seed,
                                   alpha=args.alpha, q1=args.q1,
                                   gamma_hat=conv.gamma_hat, reference=reference)
        out["eigsum"] = _fields(study, "r", "mse", "bound", "alignment_mean_sq", "alignment_bound",
                                "symmetry_max_dev", "spectral_gap", "gap_degenerate")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        _atomic_write(args.out, _dump_json(out).encode())
        out["written"] = [args.out]
    return out


_COMMANDS = {
    "generate": _cmd_generate,
    "pod": _cmd_pod,
    "mfpod": _cmd_mfpod,
    "study": _cmd_study,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not 0 < getattr(args, "kappa", 1.0) <= 1:  # before any command reads or writes a file
            raise _UsageError(f"argument --kappa: must lie in (0, 1], got {args.kappa}")
        _print(_COMMANDS[args.command](args))
    except _UsageError as exc:
        _emit_error(str(exc), "usage")
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: everything becomes an error report
        _emit_error(f"{type(exc).__name__}: {exc}", type(exc).__name__)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
