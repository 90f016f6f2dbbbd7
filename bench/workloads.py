"""The two benchmark workloads and their correctness gates.

Each workload makes the calls that ``mfpod study`` or ``mfpod verify``
makes, at the acceptance shapes, in a closed loop with one client: one
batch starts only after the previous one has finished.  A run builds its
reference several times (timed as set-up), then repeats timing batches
for the requested number of seconds.

``study-mixed`` times *rounds*: one ``run_study`` + ``write_study`` batch
of each study pipeline (even split with pilot alpha, even split with
adaptive weights, low-fidelity only), all with the round's own master
seed, so a run times many different draws.  Its first rounds are the
*gate* whose pooled outputs are checked per pipeline.  ``verify-rate``
times ``convergence_study`` + ``eigenvalue_sum_mse`` passes, after one
larger checked acceptance pass.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from mfpod import experiment, verify
from mfpod.models import AdvDiffConfig, make_model_pair

import tracing

STUDY_MODEL = AdvDiffConfig()  # n_hf=4097, n_lf=33
REFERENCE_SIZE = 10_000
REPORT_DIMS = 30
TOP_MODES = max(REPORT_DIMS, 40)  # what run_study asks build_reference for

# pipeline: (split, weight mode, repeats per batch).  "even" is the paper's
# headline pipeline; "adaptive" takes the same draws through
# mfpod_adaptive, so a gain on one path cannot hide a loss on the other;
# "lf" bypasses mfpod, solver and estimator and is the only one that calls
# pod.  One workload runs all three because the host's speed drifts in
# spells of 10-20 s: only runs of half a minute or more average over them,
# and the run budget allows that for two workloads, not four.
PIPELINES = {
    "even": ("even_split", "pilot_alpha", 5),
    "adaptive": ("even_split", "adaptive", 5),
    "lf": ("lf_only", "pilot_alpha", 3),
}
ROUND_REPEATS = sum(repeats for _, _, repeats in PIPELINES.values())
GATE_ROUNDS = 6

VERIFY_MODEL = AdvDiffConfig(n_hf=129, n_lf=17)
VERIFY_GRID = (2, 4, 8, 16, 32)
VERIFY_Q1, VERIFY_R, VERIFY_ALPHA = 4, 3, 1.0
# Repeats per grid point: acceptance 4 and 5 use 100; 30 is the smallest
# count the verify studies accept.
VERIFY_GATE_REPEATS, VERIFY_TIMING_REPEATS = 100, 30

# How often a run builds its reference; setup_s is the median.
STUDY_SETUPS, VERIFY_SETUPS = 2, 5

WORKLOADS = ("study-mixed", "verify-rate")

# Study outputs recorded at --seed 0, per pipeline: median mode count and
# the median captured energy (percent) at r = 1..5 over the repeats of the
# gate rounds.  Other seeds must stay within MODE_TOL modes and within a factor
# MISSED_TOL of the missed energy (100 - captured) at every r <= 5.
GOLDEN = {
    "even": (12.0, (99.20492, 99.87452, 99.96127, 99.98008, 99.99398)),
    "adaptive": (8.0, (99.20492, 99.87348, 99.93940, 99.97113, 99.99383)),
    "lf": (10.0, (99.16327, 99.82878, 99.91455, 99.92591, 99.92757)),
}
MODE_TOL = 1.5
MISSED_TOL = 3.0

# Acceptance 4 and 5.
SLOPE_RANGE = (-1.35, -0.65)
MSE_BOUND_RATIO = 1.2
EXCHANGE_TOL = 1e-9


@dataclass
class Outcome:
    """What one run measured and whether its outputs passed the gates."""

    setup_s: list = field(default_factory=list)
    checked: tuple = (0, 0.0)  # (repeats, seconds) run outside the timing batches
    batches: list = field(default_factory=list)  # (repeats, seconds) per timing batch
    failed: int = 0
    problems: list = field(default_factory=list)
    missed_energy_pct: dict = field(default_factory=dict)  # percent, per pipeline
    layers: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.checked[0] + sum(repeats for repeats, _ in self.batches)

    def reject(self, message: str, repeats: int) -> None:
        self.problems.append(message)
        self.failed += repeats

    def energy_nines(self) -> float:
        """Mean over pipelines of -log10 of the missed energy fraction."""
        return float(np.mean([-math.log10(pct / 100.0) for pct in self.missed_energy_pct.values()]))


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def _timing_loop(out: Outcome, seconds: float, batch, repeats: int, check,
                 min_batches: int = 1) -> None:
    """Run ``batch(k)`` for k = 0, 1, ... until ``seconds`` have passed and at
    least ``min_batches`` have run; ``check(k, result)`` names a defect or is None."""
    started = time.perf_counter()
    while len(out.batches) < min_batches or time.perf_counter() - started < seconds:
        k = len(out.batches)
        result, took = _timed(batch, k)
        out.batches.append((repeats, took))
        defect = check(k, result)
        if defect is not None:
            out.reject(f"timing batch {len(out.batches)} {defect}", repeats)


# -- studies ---------------------------------------------------------------------


def round_seed(seed: int, k: int) -> int:
    """Master seed of round ``k`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def study_config(pipeline: str, master_seed: int) -> experiment.StudyConfig:
    split, weight_mode, repeats = PIPELINES[pipeline]
    return experiment.StudyConfig(
        budget=5.0, split=split, weight_mode=weight_mode, kappa=0.9999,
        repeats=repeats, master_seed=master_seed, model=STUDY_MODEL,
        reference_size=REFERENCE_SIZE, report_dims=REPORT_DIMS,
    )


def _build_reference():
    # Looked up on the module so that a traced run sees the call.
    return experiment.build_reference(STUDY_MODEL, REFERENCE_SIZE, TOP_MODES)


def _study_round(seed: int, k: int, reference, outdir) -> dict:
    """One run_study + write_study per pipeline, all with round k's master seed."""
    reports = {}
    for pipeline in PIPELINES:
        report = experiment.run_study(study_config(pipeline, round_seed(seed, k)), reference)
        experiment.write_study(report, outdir)
        reports[pipeline] = report
    return reports


def _payloads(rounds) -> list[str]:
    return [json.dumps(report.to_payload(), sort_keys=True, indent=2)
            for reports in rounds for report in reports.values()]


def _records(rounds, pipeline: str) -> list[dict]:
    return [rec for reports in rounds for rec in reports[pipeline].repeats]


def missed_energy_pct(records) -> float:
    """Median over repeats of 100 - captured energy at r = report_dims."""
    return float(np.median([100.0 - rec["captured_energy"][REPORT_DIMS - 1] for rec in records]))


def check_study(pipeline: str, rounds) -> list[str]:
    """Problems with one pipeline's batches in the gate rounds; empty when they pass."""
    problems = [f"{pipeline} round {k} repeat {f['repeat']} failed: {f['error']}"
                for k, reports in enumerate(rounds) for f in reports[pipeline].failures]
    records = _records(rounds, pipeline)
    if not records:
        return problems + [f"{pipeline}: no repeat succeeded"]
    want_modes, want_energy = GOLDEN[pipeline]
    modes = float(np.median([rec["mode_count"] for rec in records]))
    if abs(modes - want_modes) > MODE_TOL:
        problems.append(f"{pipeline}: median mode count {modes} is not within "
                        f"{MODE_TOL} of {want_modes}")
    energy = np.median([rec["captured_energy"] for rec in records], axis=0)
    for r, (got, want) in enumerate(zip(energy[:5], want_energy), start=1):
        missed, want_missed = 100.0 - got, 100.0 - want
        if not want_missed / MISSED_TOL <= missed <= want_missed * MISSED_TOL:
            problems.append(f"{pipeline}: median missed energy {missed:.3g}% at r={r} is not "
                            f"within a factor {MISSED_TOL} of {want_missed:.3g}%")
    if pipeline == "lf":
        early, late = energy[14] - energy[4], energy[29] - energy[14]
        if not late < early:
            problems.append(f"low-fidelity curve does not plateau ({late:.3g} >= {early:.3g})")
    return problems


def _check_gate(out: Outcome, rounds, repeats: int) -> None:
    for pipeline in PIPELINES:
        out.missed_energy_pct[pipeline] = missed_energy_pct(_records(rounds, pipeline))
        for problem in check_study(pipeline, rounds):
            out.reject(problem, repeats)


def run_study_workload(seed: int, seconds: float, outdir: str) -> Outcome:
    out = Outcome()
    for _ in range(STUDY_SETUPS):
        reference = None  # drop the last reference before building the next one
        reference, took = _timed(_build_reference)
        out.setup_s.append(took)
    gate = []

    def keep(k, reports):
        if k < GATE_ROUNDS:
            gate.append(reports)

    _timing_loop(out, seconds, lambda k: _study_round(seed, k, reference, outdir),
                 ROUND_REPEATS, keep, min_batches=GATE_ROUNDS)
    _check_gate(out, gate, GATE_ROUNDS * ROUND_REPEATS)
    # Round 0 once more: the same seed must give the same repeats.
    again, took = _timed(_study_round, seed, 0, reference, outdir)
    out.checked = (ROUND_REPEATS, took)
    if _payloads([again]) != _payloads(gate[:1]):
        out.reject("a re-run of round 0 does not reproduce it", ROUND_REPEATS)
    return out


def trace_study_workload(seed: int, outdir: str) -> tuple[Outcome, tracing.Tracer]:
    """One traced set-up, then the gate rounds untraced and once more traced."""
    out = Outcome()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reference, took = _timed(_build_reference)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    out.setup_s.append(took)

    def gate():
        return [_study_round(seed, k, reference, outdir) for k in range(GATE_ROUNDS)]

    plain, plain_s = _timed(gate)
    with tracing.installed(tracer):
        traced, traced_s = _timed(gate)
    gate_repeats = GATE_ROUNDS * ROUND_REPEATS
    out.checked = (gate_repeats, plain_s)
    out.batches = [(gate_repeats, traced_s)]
    _check_gate(out, plain, 2 * gate_repeats)
    if _payloads(plain) != _payloads(traced):
        out.reject("traced report.json payload differs from the untraced one", gate_repeats)
    out.layers = {
        "experiment.build_reference.alloc_peak_mb": (peak - base) / 2**20,
        "experiment.build_reference.held_mb": (held - base) / 2**20,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }
    return out, tracer


# -- verify-rate -----------------------------------------------------------------


def verify_pass(pair, reference, seed: int, repeats: int):
    """Acceptance 4 then 5: the convergence study, then the eigenvalue-sum study at its gamma."""
    conv = verify.convergence_study(pair, VERIFY_Q1, VERIFY_GRID, repeats, seed,
                                    alpha=VERIFY_ALPHA, reference=reference)
    eigsum = verify.eigenvalue_sum_mse(pair, VERIFY_R, VERIFY_GRID, repeats, seed,
                                       alpha=VERIFY_ALPHA, q1=VERIFY_Q1,
                                       gamma_hat=conv.gamma_hat, reference=reference)
    return conv, eigsum


def _draws(repeats: int) -> int:
    return 2 * len(VERIFY_GRID) * repeats  # one repeat = one draw at one grid point


def check_verify(conv, eigsum) -> list[str]:
    problems = []
    lo, hi = SLOPE_RANGE
    if conv.exact or not lo <= conv.slope <= hi:
        problems.append(f"log-log slope {conv.slope:.3f} outside [{lo}, {hi}]")
    ratio = max(m / b for m, b in zip(eigsum.mse, eigsum.bound))
    if not ratio <= MSE_BOUND_RATIO:
        problems.append(f"max MSE/bound {ratio:.3f} exceeds {MSE_BOUND_RATIO}")
    if eigsum.gap_degenerate or not eigsum.symmetry_max_dev <= EXCHANGE_TOL:
        problems.append(f"exchange identity deviates by {eigsum.symmetry_max_dev:.2e}")
    return problems


def verify_missed_energy_pct(eigsum) -> float:
    """Reference energy outside its own top-r eigenspace, in percent."""
    return 100.0 * (1.0 - eigsum.reference_energy_ratio)


def run_verify_workload(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    pair = make_model_pair(VERIFY_MODEL)
    for _ in range(VERIFY_SETUPS):
        reference, took = _timed(verify.reference_matrix, pair, REFERENCE_SIZE, seed)
        out.setup_s.append(took)
    (conv, eigsum), took = _timed(verify_pass, pair, reference, seed, VERIFY_GATE_REPEATS)
    out.checked = (_draws(VERIFY_GATE_REPEATS), took)
    out.missed_energy_pct["verify"] = verify_missed_energy_pct(eigsum)
    for problem in check_verify(conv, eigsum):
        out.reject(problem, _draws(VERIFY_GATE_REPEATS))
    seen = []

    def check(k, result):
        seen.append(repr(result))
        return None if seen[-1] == seen[0] else "differs from timing batch 1"

    _timing_loop(out, seconds, lambda k: verify_pass(pair, reference, seed, VERIFY_TIMING_REPEATS),
                 _draws(VERIFY_TIMING_REPEATS), check)
    return out


def trace_verify_workload(seed: int) -> tuple[Outcome, tracing.Tracer]:
    """One traced set-up, then one untraced and one traced gate pass."""
    out = Outcome()
    tracer = tracing.Tracer()
    pair = make_model_pair(VERIFY_MODEL)
    draws = _draws(VERIFY_GATE_REPEATS)
    with tracing.installed(tracer):
        reference, took = _timed(verify.reference_matrix, pair, REFERENCE_SIZE, seed)
    out.setup_s.append(took)
    plain, plain_s = _timed(verify_pass, pair, reference, seed, VERIFY_GATE_REPEATS)
    with tracing.installed(tracer):
        traced, traced_s = _timed(verify_pass, pair, reference, seed, VERIFY_GATE_REPEATS)
    out.checked = (draws, plain_s)
    out.batches = [(draws, traced_s)]
    out.missed_energy_pct["verify"] = verify_missed_energy_pct(plain[1])
    for problem in check_verify(*plain):
        out.reject(problem, 2 * draws)
    if repr(plain) != repr(traced):
        out.reject("traced verify outputs differ from the untraced ones", draws)
    out.layers = {"trace.overhead_frac": traced_s / plain_s - 1.0}
    return out, tracer
