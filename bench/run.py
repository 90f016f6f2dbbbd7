"""Benchmark of the mfpod library on four study/verify workloads.

Run from the repository root:

    python3 bench/run.py --workload study-mixed --seed 0 --seconds 30 --trace 0

Workloads: study-mixed, verify-rate (bench/NOTES.md says why each was
chosen).  ``--trace 0`` measures the end-to-end metrics
untraced: set-up, then timing batches for ``--seconds``, with the checked
work around them.  ``--trace 1`` does fixed work instead (one traced
set-up, the checked work once untraced and once traced) and reports the
per-layer metrics.
Every metric is printed by name with its unit, after a JSON line with the
machine fingerprint; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy is imported.

    With two threads on two shared vCPUs, run rates spread wider from run
    to run (bench/NOTES.md, *Steadiness*).
    """
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    return 1


def _read(path, default: str = "unknown") -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _commit() -> str:
    git = ROOT / ".git"
    ref = _read(git / "HEAD", "")
    if not ref.startswith("ref: "):
        return ref or "unknown (not a git checkout)"
    name = ref[5:]
    if (git / name).is_file():
        return _read(git / name)
    for line in _read(git / "packed-refs", "").splitlines():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def fingerprint(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo", "").splitlines()
                if line.startswith("model name")), "unknown")
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "llc": _read(caches[-1] / "size") if caches else "unknown",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def end_to_end(out) -> dict:
    return {
        "setup_s": statistics.median(out.setup_s),
        # Over the whole timed span, so that it averages the host's slow and fast spells.
        "repeats_per_s": sum(r for r, _ in out.batches) / sum(s for _, s in out.batches),
        "energy_nines": out.energy_nines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfpod" / "__init__.py").is_file():
        print(f"error: {SRC / 'mfpod'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    blas_threads = _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import mfpod

    if Path(mfpod.__file__).resolve().parent != SRC / "mfpod":
        print(f"error: imported mfpod from {mfpod.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    print(json.dumps({"fingerprint": fingerprint(blas_threads)}, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    study = args.workload != "verify-rate"
    try:
        if args.trace:
            if study:
                out, tracer = workloads.trace_study_workload(args.seed, outdir)
            else:
                out, tracer = workloads.trace_verify_workload(args.seed)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.spans))
            values = {**tracing.layer_metrics(tracer), **out.layers}
        else:
            if study:
                out = workloads.run_study_workload(args.seed, args.seconds, outdir)
            else:
                out = workloads.run_verify_workload(args.seed, args.seconds)
            values = end_to_end(out)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {m["name"]: (values.get(m["name"], 0.0), m["unit"])
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    attempted = out.attempted
    failed = min(out.failed, attempted)
    for problem in out.problems:
        print(f"check failed: {problem}")
    print(f"setup_runs_s = {out.setup_s!r}")
    print(f"checked batch = {out.checked!r}, timing batches = {out.batches!r} (repeats, seconds)")
    print(f"fail_frac = {failed / attempted!r} ({failed}/{attempted} repeats)")
    if not args.trace:
        # Printed but not gated; bench/NOTES.md says why.
        for name, pct in out.missed_energy_pct.items():
            print(f"missed_energy_pct.{name} = {pct!r} %")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"peak_rss_mb = {peak!r} MB")
    for key, (value, unit) in reported.items():
        print(f"{key} = {value!r} {unit}")
    result = {
        "correct": not out.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
