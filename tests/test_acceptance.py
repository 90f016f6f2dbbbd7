"""Release acceptance checks.

Each test covers one numbered acceptance criterion, prints a single
PASS/FAIL line with the measured quantities, and enforces the stated
tolerance and runtime budget.  Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they appear.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from mfpod import (
    AdvDiffConfig,
    Allocation,
    Basis,
    Metric,
    SnapshotSet,
    StudyConfig,
    build_reference,
    convergence_study,
    eigenvalue_sum_mse,
    generate_snapshot_files,
    j_mf,
    make_model_pair,
    mfpod_fixed,
    orthonormalize,
    pod,
    project,
    reference_matrix,
    run_study,
    subspace_alignment,
    write_study,
)

import mfpod.experiment as experiment

from conftest import dense_mf_oracle, random_instance, random_spd_metric


def _line(num: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num} [{name}]: {status} -- {detail}", flush=True)
    return ok


def _signed_order(values: np.ndarray) -> np.ndarray:
    return np.argsort(-values, kind="stable")


def _pair_sets(pair, m0: int, m1: int, seed: int):
    thetas = pair.sampler(m1, seed)
    hf = np.column_stack([pair.high(t) for t in thetas[:m0]])
    lf = np.column_stack([pair.low(t) for t in thetas])
    ids = tuple(range(m1))
    return (
        SnapshotSet(0, hf, np.zeros((hf.shape[0], 0)), ids[:m0], pair.costs.high),
        SnapshotSet(1, lf[:, :m0], lf[:, m0:], ids, pair.costs.low),
    )


def _alloc(sets, alpha: float) -> Allocation:
    return Allocation((sets[0].count, sets[1].count), (alpha,),
                      (sets[0].cost_per_sample, sets[1].cost_per_sample))


# -- 1: spectra and subspaces match a dense oracle on small instances --------


def test_acceptance_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    max_rel = 0.0
    max_align = 0.0
    for trial in range(50):
        n = int(rng.integers(8, 65))
        m0 = int(rng.integers(2, 5))
        m1 = int(rng.integers(m0 + 1, 17))
        metric = random_spd_metric(rng, n) if trial % 2 else Metric.euclidean(n)
        sets = random_instance(rng, n, m0, m1, metric)
        alpha = float(rng.uniform(0.3, 1.5))
        mf = mfpod_fixed(sets, (alpha,), kappa=0.9999, metric=metric)
        vals, vecs = dense_mf_oracle(sets, alpha, metric, drop_tol=1e-10)
        order = _signed_order(mf.raw_eigvals)
        got_vals = mf.raw_eigvals[order]
        got_vecs = mf.vectors[:, order]
        assert len(got_vals) == len(vals)
        rel = np.abs(got_vals - vals) / np.abs(vals)
        max_rel = max(max_rel, float(rel.max()))
        top = np.abs(vals[0])
        for r in range(1, len(vals)):
            gap = vals[r - 1] - vals[r]
            if gap > 1e-6 * top:
                a = subspace_alignment(Basis(got_vecs[:, :r], metric),
                                       Basis(vecs[:, :r], metric))
                max_align = max(max_align, a)
    elapsed = time.perf_counter() - started
    ok = max_rel <= 1e-8 and max_align <= 1e-6 and elapsed < 10.0
    assert _line(1, "dense-oracle equivalence", ok,
                 f"50 instances, max eigval rel dev {max_rel:.2e} (tol 1e-8), "
                 f"max gap-guarded alignment {max_align:.2e} (tol 1e-6), "
                 f"{elapsed:.1f}s (< 10s)")


# -- 2: the estimator equals the spectral identity on every subspace ---------


def test_acceptance_2_estimate_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    max_rel = 0.0
    for _ in range(5):
        n = int(rng.integers(12, 25))
        metric = random_spd_metric(rng, n)
        sets = random_instance(rng, n, 3, 9, metric)
        alpha = float(rng.uniform(0.5, 1.2))
        mf = mfpod_fixed(sets, (alpha,), kappa=0.9999, metric=metric)
        alloc = _alloc(sets, alpha)
        for _ in range(100):
            r = int(rng.integers(1, 6))
            cand = orthonormalize(rng.standard_normal((n, r)), metric)
            lhs = j_mf(cand, sets, alloc)
            proj = mf.vectors.T @ metric.apply(cand.vectors)
            captured = np.einsum("jk,jk->j", proj, proj)
            rhs = float(np.sum(mf.raw_eigvals * (1.0 - captured)))
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            max_rel = max(max_rel, rel)
    elapsed = time.perf_counter() - started
    ok = max_rel <= 1e-8 and elapsed < 5.0
    assert _line(2, "estimator spectral identity", ok,
                 f"5 instances x 100 candidates, max rel dev {max_rel:.2e} "
                 f"(tol 1e-8), {elapsed:.1f}s (< 5s)")


# -- 3: the estimator is unbiased for the true expected projection error -----


def test_acceptance_3_estimator_unbiased():
    started = time.perf_counter()
    pair = make_model_pair(AdvDiffConfig(n_hf=129, n_lf=17))
    metric = pair.metric
    pilot = mfpod_fixed(_pair_sets(pair, 4, 16, 999), (1.0,),
                        kappa=0.9999, metric=metric)
    v = Basis(pilot.vectors[:, :3], metric)

    m0, m1, alpha = 2, 8, 1.0
    alloc = Allocation((m0, m1), (alpha,), (pair.costs.high, pair.costs.low))
    draws = np.empty(2000)
    for i in range(len(draws)):
        draws[i] = j_mf(v, _pair_sets(pair, m0, m1, 10_000 + i), alloc)
    se_draws = draws.std(ddof=1) / np.sqrt(len(draws))

    thetas = pair.sampler(100_000, 123_456)
    u = np.column_stack([pair.high(t) for t in thetas])
    energies = metric.norms_sq(u - project(v, u))
    truth = float(energies.mean())
    se_truth = energies.std(ddof=1) / np.sqrt(len(energies))

    dev = abs(float(draws.mean()) - truth)
    band = 3.0 * float(np.hypot(se_draws, se_truth))
    elapsed = time.perf_counter() - started
    ok = dev <= band and elapsed < 60.0
    assert _line(3, "estimator unbiasedness", ok,
                 f"2000-draw mean {draws.mean():.6e} vs 1e5-sample truth "
                 f"{truth:.6e}, |dev| {dev:.2e} <= 3se {band:.2e}, "
                 f"{elapsed:.1f}s (< 60s)")


# -- 4 & 5 share one converged-rate study on the coarse mesh pair ------------


@pytest.fixture(scope="module")
def rate_study():
    pair = make_model_pair(AdvDiffConfig(n_hf=129, n_lf=17))
    started = time.perf_counter()
    reference = reference_matrix(pair, 10_000, 5)
    conv = convergence_study(pair, q1=4, m0_grid=(2, 4, 8, 16, 32),
                             repeats=100, seed=5, reference=reference)
    elapsed = time.perf_counter() - started
    return pair, reference, conv, elapsed


def test_acceptance_4_error_decay_rate(rate_study):
    _, _, conv, elapsed = rate_study
    ok = -1.35 <= conv.slope <= -0.65 and elapsed < 120.0
    assert _line(4, "operator error decay", ok,
                 f"log-log slope {conv.slope:.3f} in [-1.35, -0.65], "
                 f"gamma_hat {conv.gamma_hat:.3e}, {elapsed:.1f}s (< 120s)")


def test_acceptance_5_eigenvalue_sum_bound(rate_study):
    pair, reference, conv, _ = rate_study
    study = eigenvalue_sum_mse(pair, r=3, m0_grid=(2, 4, 8, 16, 32),
                               repeats=100, seed=5,
                               gamma_hat=conv.gamma_hat, reference=reference)
    ratios = [m / b for m, b in zip(study.mse, study.bound)]
    ok = (max(ratios) <= 1.2
          and study.symmetry_max_dev <= 1e-9
          and not study.gap_degenerate)
    assert _line(5, "eigenvalue-sum error bound", ok,
                 f"max MSE/bound {max(ratios):.3f} (tol 1.2), exchange-identity "
                 f"max dev {study.symmetry_max_dev:.2e} (tol 1e-9)")


# -- 6: full-size budget study reproduces the qualitative ordering -----------


@pytest.fixture(scope="module")
def desk_reports():
    started = time.perf_counter()
    base = dict(budget=5.0, repeats=100, master_seed=20, report_dims=30)
    model = AdvDiffConfig()
    reference = build_reference(model, 10_000, 40)
    reports = {
        split: run_study(StudyConfig(model=model, split=split, **base), reference)
        for split in ("even_split", "hf_only", "lf_only")
    }
    return reports, time.perf_counter() - started


def _paired_repeats(a, b) -> list:
    """(a, b) records of the repeats both studies kept, paired by repeat index,
    so that a failed repeat drops its own pair and shifts no other."""
    kept = {rec["repeat"]: rec for rec in b.repeats}
    return [(rec, kept[rec["repeat"]]) for rec in a.repeats if rec["repeat"] in kept]


def test_acceptance_6_budget_study_ordering(desk_reports):
    reports, elapsed = desk_reports
    mf, hf, lf = (reports[k] for k in ("even_split", "hf_only", "lf_only"))

    hf_counts = [rec["mode_count"] for rec in hf.repeats]
    wins = sum(a["mode_count"] > b["mode_count"] for a, b in _paired_repeats(mf, hf))
    mf_med = mf.aggregates["captured_energy"]["p50"]
    hf_med = hf.aggregates["captured_energy"]["p50"]
    lf_med = lf.aggregates["captured_energy"]["p50"]
    plateau_late = lf_med[29] - lf_med[14]
    plateau_early = lf_med[14] - lf_med[4]

    ok_a = max(hf_counts) <= 5
    ok_b = wins >= 90
    ok_c = all(m >= h for m, h in zip(mf_med[:5], hf_med[:5]))
    ok_d = plateau_late < plateau_early
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 600.0
    assert _line(6, "budget-study ordering", ok,
                 f"hf modes max {max(hf_counts)} (<= 5: {ok_a}), "
                 f"mf>hf modes in {wins}/100 paired repeats (>= 90: {ok_b}), "
                 f"mf median energy >= hf at r<=5: {ok_c}, "
                 f"lf plateau {plateau_late:.2e} < {plateau_early:.2e}: {ok_d}, "
                 f"{elapsed:.0f}s (< 600s)")


def test_a_failed_repeat_drops_only_its_own_pair(monkeypatch):
    run_repeat = experiment._run_repeat

    def failing(rep, seed, pair, metric, m0, m1, pipeline, *args):
        if pipeline == "pod_hf" and rep == 2:
            raise ValueError("synthetic failure")
        return run_repeat(rep, seed, pair, metric, m0, m1, pipeline, *args)

    monkeypatch.setattr(experiment, "_run_repeat", failing)
    model = AdvDiffConfig(n_hf=129, n_lf=17)
    reference = build_reference(model, 200, 10)
    mf, hf = (run_study(StudyConfig(model=model, budget=5.0, split=split, repeats=6,
                                    master_seed=4, report_dims=10), reference)
              for split in ("even_split", "hf_only"))
    assert [f["repeat"] for f in hf.failures] == [2] and not mf.failures
    pairs = _paired_repeats(mf, hf)
    assert [a["repeat"] for a, _ in pairs] == [0, 1, 3, 4, 5]
    # paired repeats share their seed, hence their high-fidelity draws
    assert all(a["seed"] == b["seed"] for a, b in pairs)


# -- 7: degenerate weights reduce the method to plain POD --------------------


def test_acceptance_7_reduction_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    n, m0, m1 = 40, 3, 12
    metric = random_spd_metric(rng, n)

    def check(mf, reference_pod, label):
        order = _signed_order(mf.raw_eigvals)
        got_vals = mf.raw_eigvals[order]
        got_vecs = mf.vectors[:, order]
        want = reference_pod.eigvals
        assert len(got_vals) == len(want), label
        np.testing.assert_allclose(got_vals, want, rtol=1e-9, err_msg=label)
        worst = 0.0
        for r in range(1, len(want)):
            if want[r - 1] - want[r] > 1e-6 * want[0]:
                a = subspace_alignment(Basis(got_vecs[:, :r], metric),
                                       Basis(reference_pod.basis.vectors[:, :r], metric))
                worst = max(worst, a)
        assert worst <= 1e-8, label
        return worst

    sets = random_instance(rng, n, m0, m1, metric)
    mf0 = mfpod_fixed(sets, (0.0,), kappa=0.9999, metric=metric)
    align0 = check(mf0, pod(sets[0].columns, metric), "alpha=0 vs high-fidelity")

    hf = rng.standard_normal((n, m1)) @ np.diag(np.logspace(0, -2, m1))
    ids = tuple(range(m1))
    twin = (
        SnapshotSet(0, hf[:, :m0], np.zeros((n, 0)), ids[:m0], 1.0),
        SnapshotSet(1, hf[:, :m0], hf[:, m0:], ids, 0.125),
    )
    mf1 = mfpod_fixed(twin, (1.0,), kappa=0.9999, metric=metric)
    align1 = check(mf1, pod(hf, metric), "identical levels, alpha=1")

    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0
    assert _line(7, "reduction identities", ok,
                 f"alpha=0 == hf pod (align {align0:.2e}), identical levels at "
                 f"alpha=1 == pooled pod (align {align1:.2e}), eigvals rtol 1e-9, "
                 f"{elapsed:.1f}s (< 5s)")


# -- 8: one master seed gives byte-identical files and reports ---------------


def test_acceptance_8_deterministic_outputs(tmp_path):
    config = StudyConfig(budget=5.0, repeats=3, master_seed=33,
                         reference_size=200, report_dims=10,
                         model=AdvDiffConfig(n_hf=257, n_lf=17))

    snapshot_names, report_names = [], []
    for run in ("one", "two"):
        gen = tmp_path / f"gen_{run}"
        out = tmp_path / f"out_{run}"
        snapshot_names = [os.path.basename(p) for p in generate_snapshot_files(config, gen)]
        report_names = [os.path.basename(p) for p in write_study(run_study(config), out)]

    same_snapshots = [
        name for name in snapshot_names
        if filecmp.cmp(tmp_path / "gen_one" / name, tmp_path / "gen_two" / name,
                       shallow=False)
    ]
    checked = [name for name in report_names if name != "timings.csv"]
    same_reports = [
        name for name in checked
        if filecmp.cmp(tmp_path / "out_one" / name, tmp_path / "out_two" / name,
                       shallow=False)
    ]
    ok = (len(same_snapshots) == len(snapshot_names)
          and len(same_reports) == len(checked))
    assert _line(8, "deterministic outputs", ok,
                 f"{len(same_snapshots)}/{len(snapshot_names)} snapshot files and "
                 f"{len(same_reports)}/{len(checked)} report files byte-identical "
                 f"across two runs (timings.csv excluded)")
