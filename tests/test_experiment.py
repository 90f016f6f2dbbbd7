import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfpod.experiment as experiment
import mfpod.mfpod as mfpod_module
from mfpod import (
    AdvDiffConfig,
    MfpFileError,
    ModelCosts,
    StudyConfig,
    allocate_budget,
    build_reference,
    equispaced_parameters,
    fine_metric,
    generate_snapshot_files,
    orthonormalize,
    pod,
    read_snapshots,
    run_study,
    sample_parameters,
    select_dim,
    snapshot,
    write_snapshots,
    write_study,
)
from mfpod.core import _CHUNK

_SMALL = AdvDiffConfig(n_hf=129, n_lf=33)
# Reference sizes below and above the dimension n = 129 of _SMALL, and one
# that spans three snapshot chunks, the last one partial.
_REFERENCE_SIZES = [60, 300, 2 * _CHUNK + 17]


def test_allocate_budget_even_split_examples():
    costs = ModelCosts()
    assert allocate_budget(5, costs, "even_split") == (2, 248)
    assert allocate_budget(10, costs, "even_split") == (5, 620)


def test_allocate_budget_single_fidelity():
    costs = ModelCosts()
    assert allocate_budget(5, costs, "hf_only") == (5, 0)
    assert allocate_budget(5, costs, "lf_only") == (0, 620)
    assert allocate_budget(5.9, costs, "hf_only") == (5, 0)


def test_allocate_budget_fixed_m0():
    costs = ModelCosts()
    m0, m1 = allocate_budget(5, costs, "fixed_m0:3")
    assert m0 == 3
    assert m1 == int((5 - 3) / costs.low)


def test_allocate_budget_infeasible():
    costs = ModelCosts()
    with pytest.raises(ValueError):
        allocate_budget(1.0, costs, "even_split")
    with pytest.raises(ValueError):
        allocate_budget(0.5, costs, "hf_only")
    with pytest.raises(ValueError):
        allocate_budget(3.0, costs, "fixed_m0:3")
    with pytest.raises(ValueError):
        allocate_budget(5.0, costs, "free_lunch")


def test_allocation_cost_accounting_invariant():
    rng = np.random.default_rng(0)
    costs = ModelCosts()
    for _ in range(100):
        budget = rng.uniform(2.1, 50.0)
        for policy in ("even_split", "hf_only", "lf_only", "fixed_m0:2"):
            try:
                m0, m1 = allocate_budget(budget, costs, policy)
            except ValueError:
                continue
            assert m0 * costs.high + m1 * costs.low <= budget + costs.low + 1e-9


def _reference_snapshots(size):
    thetas = equispaced_parameters(size, _SMALL.theta_range)
    return np.column_stack([snapshot(t, "high", _SMALL) for t in thetas])


def _score(vectors, ref) -> float:
    """Captured energy (percent) of the whole basis against the reference."""
    return experiment._energy_curve(vectors, ref, max(vectors.shape[1], 1))[-1]


def _test_bases(metric):
    """POD bases of both fidelities and a random subspace, 8 modes at most."""
    rng = np.random.default_rng(11)
    thetas = sample_parameters(6, 11, _SMALL.theta_range)
    out = [pod(np.column_stack([snapshot(t, fid, _SMALL) for t in thetas]), metric).basis.vectors
           for fid in ("high", "low")]
    out.append(orthonormalize(rng.standard_normal((metric.n, 8)), metric).vectors)
    return out


@pytest.mark.parametrize("size", _REFERENCE_SIZES)
def test_reference_scores_match_dense_snapshot_oracle(size):
    ref = build_reference(_SMALL, size, 40)
    metric = fine_metric(_SMALL)
    u = _reference_snapshots(size)
    weighted, denom = metric.apply(u), float(metric.norms_sq(u).sum())
    for vectors in _test_bases(metric):
        coeff = vectors.T @ weighted
        dense = 100.0 * np.cumsum(np.einsum("ij,ij->i", coeff, coeff)) / denom
        got = experiment._energy_curve(vectors, ref, vectors.shape[1])
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-10)


@pytest.mark.parametrize("size", _REFERENCE_SIZES)
def test_reference_leading_modes_reproduce_energy_curve(size):
    ref = build_reference(_SMALL, size, 40)
    metric = fine_metric(_SMALL)
    # the reference is kept as a factor of its K eigenpairs above roundoff
    k = ref.weighted.shape[1]
    assert ref.weighted.shape == (metric.n, k) and 1 <= k < 40
    assert (ref.eigvals[:k] > 0).all() and (ref.eigvals[k:] == 0).all()
    t = metric.to_coords(_reference_snapshots(size))
    vals, phi = np.linalg.eigh(t @ t.T / size)
    vals, phi = vals[::-1], phi[:, ::-1]
    # the same K and eigenvalues as the dense second moment
    trace = float(np.sum(t * t)) / size
    assert ref.trace == pytest.approx(trace, rel=1e-14)
    assert int(np.sum(vals > experiment._REFERENCE_FLOOR * trace)) == k
    np.testing.assert_allclose(ref.eigvals[:k], vals[:k], rtol=0, atol=1e-14 * trace)
    modes = metric.from_coords(phi[:, :20])
    got = experiment._energy_curve(modes, ref, 20)
    np.testing.assert_allclose(got, ref.energy_curve(20), rtol=0, atol=1e-10)


def test_reference_span_grows_across_chunks():
    # directions still join the span in a later chunk, after earlier chunks
    # have been accumulated, so the moment's zero padding is exercised
    chunks, growth = [], []
    stream, orthonormalize_ = experiment._snapshot_chunks, mfpod_module.orthonormalize

    def counted_chunks(*args):
        for chunk in stream(*args):
            chunks.append(chunk.shape[1])
            yield chunk

    def recorded(vectors, metric, tol=1e-12):
        basis = orthonormalize_(vectors, metric, tol)
        growth.append((len(chunks), basis.dim))
        return basis

    with mock.patch.object(experiment, "_snapshot_chunks", counted_chunks), \
            mock.patch.object(mfpod_module, "orthonormalize", recorded):
        build_reference(_SMALL, 2 * _CHUNK + 17, 40)
    assert chunks == [_CHUNK, _CHUNK, 17]
    assert max(index for index, dim in growth if dim) >= 2


def test_reference_build_holds_no_n_by_n_matrix():
    model = AdvDiffConfig(n_hf=8193, n_lf=33)
    tracemalloc.start()
    try:
        build_reference(model, 300, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.n_hf ** 2 * 8 / 4


def _scores(ref, bases) -> np.ndarray:
    return np.concatenate([experiment._energy_curve(v, ref, v.shape[1]) for v in bases])


@settings(derandomize=True, deadline=None, max_examples=20)
@given(exponent=st.floats(-6.0, 6.0))
def test_reference_is_invariant_to_snapshot_scale(exponent):
    c = 10.0 ** exponent
    bases = _test_bases(fine_metric(_SMALL))
    base = build_reference(_SMALL, 300, 40)
    with mock.patch.object(experiment, "snapshot",
                           lambda theta, fidelity, model: c * snapshot(theta, fidelity, model)):
        scaled = build_reference(_SMALL, 300, 40)
    k = base.weighted.shape[1]
    assert scaled.weighted.shape[1] == k
    np.testing.assert_allclose(scaled.trace, c * c * base.trace, rtol=1e-12)
    np.testing.assert_allclose(scaled.eigvals, c * c * base.eigvals, rtol=0,
                               atol=1e-12 * c * c * base.trace)
    np.testing.assert_allclose(_scores(scaled, bases), _scores(base, bases), rtol=0, atol=1e-9)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(order=st.permutations(range(300)))
def test_reference_is_invariant_to_snapshot_order(order):
    bases = _test_bases(fine_metric(_SMALL))
    base = build_reference(_SMALL, 300, 40)
    equispaced = experiment.equispaced_parameters
    with mock.patch.object(experiment, "equispaced_parameters",
                           lambda count, theta_range: equispaced(count, theta_range)[order]):
        shuffled = build_reference(_SMALL, 300, 40)
    assert shuffled.weighted.shape[1] == base.weighted.shape[1]
    np.testing.assert_allclose(shuffled.eigvals, base.eigvals, rtol=0, atol=1e-12 * base.trace)
    np.testing.assert_allclose(_scores(shuffled, bases), _scores(base, bases), rtol=0, atol=1e-10)


def test_captured_energy_trivial_cases(monkeypatch):
    metric = fine_metric(_SMALL)
    below, above = build_reference(_SMALL, 60, 40), build_reference(_SMALL, 300, 40)
    empty = np.zeros((metric.n, 0))
    assert experiment._energy_curve(empty, below, 5) == [0.0] * 5
    # the span of the reference's own snapshots, and the whole space, hold everything
    span = orthonormalize(_reference_snapshots(60), metric).vectors
    assert _score(span, below) == pytest.approx(100.0, abs=1e-8)
    whole = orthonormalize(np.eye(metric.n), metric).vectors
    assert _score(whole, above) == pytest.approx(100.0, abs=1e-8)
    monkeypatch.setattr(experiment, "snapshot", lambda theta, fidelity, model: np.zeros(model.n_hf))
    with pytest.raises(ValueError, match="no energy"):
        build_reference(_SMALL, 60, 40)


def test_captured_energy_monotone_in_nested_bases():
    for size in (60, 300):
        ref = build_reference(_SMALL, size, 40)
        for vectors in _test_bases(fine_metric(_SMALL)):
            vals = [_score(vectors[:, :r], ref) for r in range(vectors.shape[1] + 1)]
            assert vals[0] == 0.0
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 100.0 + 1e-9 for v in vals)


def test_select_dim():
    vals = np.array([2.0, 1.0, 0.5, 0.0])
    assert select_dim(vals, 0.5) == 1
    assert select_dim(vals, 0.9) == 3
    assert select_dim(vals, 1.0) == 3
    assert select_dim(np.zeros(3), 0.9) == 0
    with pytest.raises(ValueError):
        select_dim(vals, 1.5)


def test_snapshot_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((100, 7))
    path = tmp_path / "snaps.mfp1"
    write_snapshots(path, a)
    assert os.path.getsize(path) == 24 + 8 * 100 * 7
    b = read_snapshots(path)
    np.testing.assert_array_equal(a, b)
    # fortran-ordered input round-trips identically too
    write_snapshots(path, np.asfortranarray(a))
    np.testing.assert_array_equal(read_snapshots(path), a)


def test_snapshot_file_header_layout(tmp_path):
    path = tmp_path / "h.mfp1"
    write_snapshots(path, np.zeros((4097, 2)))
    blob = path.read_bytes()
    assert blob[:4] == b"MFPS"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:16], "little") == 4097
    assert int.from_bytes(blob[16:24], "little") == 2
    assert len(blob) == 24 + 8 * 4097 * 2


def test_snapshot_file_corruption_detected(tmp_path):
    path = tmp_path / "c.mfp1"
    write_snapshots(path, np.ones((6, 3)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(MfpFileError):
        read_snapshots(path)
    path.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(MfpFileError):
        read_snapshots(path)
    path.write_bytes(blob[:4] + (9).to_bytes(4, "little") + blob[8:])
    with pytest.raises(MfpFileError):
        read_snapshots(path)


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(budget=0.0)
    with pytest.raises(ValueError):
        StudyConfig(budget=5.0, kappa=0.0)
    with pytest.raises(ValueError):
        StudyConfig(budget=5.0, split="sideways")
    with pytest.raises(ValueError):
        StudyConfig(budget=5.0, weight_mode="fixed:x")


@pytest.mark.parametrize("mode", ["fixed:inf", "fixed:-inf", "fixed:nan"])
def test_study_config_rejects_non_finite_fixed_weight(mode):
    with pytest.raises(ValueError, match="finite"):
        StudyConfig(budget=5.0, weight_mode=mode)


def test_run_study_hf_only_cost_accounting():
    config = StudyConfig(budget=5.0, split="hf_only", repeats=1, master_seed=0,
                         model=_SMALL, reference_size=60, report_dims=6)
    report = run_study(config)
    assert report.pipeline == "pod_hf"
    assert (report.m0, report.m1) == (5, 0)
    rec = report.repeats[0]
    assert rec["m0"] == 5 and rec["m1"] == 0
    assert rec["mode_count"] <= 5
    assert len(rec["captured_energy"]) == 6


def test_run_study_mfpod_pipelines_and_aggregates():
    for mode in ("pilot_alpha", "fixed:1.0", "adaptive"):
        config = StudyConfig(budget=5.0, split="even_split", weight_mode=mode,
                             repeats=3, master_seed=1, model=_SMALL,
                             reference_size=60, report_dims=6)
        report = run_study(config)
        assert report.pipeline == "mfpod"
        assert not report.failures
        for rec in report.repeats:
            assert rec["alphas"]
            assert all(0.0 <= e <= 100.0 + 1e-9 for e in rec["captured_energy"])
        perc = report.aggregates["captured_energy"]
        for j in range(6):
            col = [perc[f"p{p}"][j] for p in (5, 25, 50, 75, 95)]
            assert col == sorted(col)  # percentile monotonicity per dimension


@pytest.mark.parametrize("split", ["fixed_m0:1", "even_split"])
@pytest.mark.parametrize("mode", ["pilot_alpha", "adaptive"])
def test_run_study_rejects_a_fitted_weight_on_one_hf_sample(mode, split):
    # budget 3 buys m_0 = 1 under an even split; a one-sample profile is
    # all zeros, so the fitted weight would silently drop the surrogate
    config = StudyConfig(budget=3.0, split=split, weight_mode=mode, repeats=2,
                         model=_SMALL, reference_size=60, report_dims=4)
    assert allocate_budget(3.0, ModelCosts.from_config(_SMALL), split)[0] == 1
    with mock.patch.object(experiment, "build_reference") as build, \
            mock.patch.object(experiment, "_run_repeat") as repeat:
        with pytest.raises(ValueError, match="m_0 >= 2"):
            run_study(config)
    assert not build.called and not repeat.called


def test_run_study_fixed_weight_and_generate_accept_one_hf_sample(tmp_path):
    config = StudyConfig(budget=3.0, split="fixed_m0:1", weight_mode="fixed:0.5", repeats=2,
                         model=_SMALL, reference_size=60, report_dims=4)
    report = run_study(config)
    assert report.m0 == 1 and not report.failures
    assert all(rec["alphas"] == [0.5] for rec in report.repeats)
    # generating files fits no weight, so the default pilot mode is no obstacle
    written = generate_snapshot_files(StudyConfig(budget=3.0, split="fixed_m0:1", model=_SMALL),
                                      tmp_path)
    assert read_snapshots(tmp_path / "snapshots_high.mfp1").shape == (129, 1)
    assert len(written) == 3


def test_run_study_reference_reuse_and_determinism(tmp_path):
    config = StudyConfig(budget=5.0, split="even_split", repeats=2, master_seed=7,
                         model=_SMALL, reference_size=60, report_dims=5)
    ref = build_reference(_SMALL, 60, 40)
    r1 = run_study(config, reference=ref)
    r2 = run_study(config)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_study(r1, d1)
    write_study(r2, d2)
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        if name == "timings.csv":
            continue
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_run_study_records_partial_failures(monkeypatch):
    original = experiment._run_repeat

    def flaky(rep, *args, **kwargs):
        if rep == 0:
            raise ValueError("synthetic repeat failure")
        return original(rep, *args, **kwargs)

    monkeypatch.setattr(experiment, "_run_repeat", flaky)
    config = StudyConfig(budget=5.0, split="hf_only", repeats=3, master_seed=2,
                         model=_SMALL, reference_size=40, report_dims=4)
    report = run_study(config)
    assert len(report.failures) == 1
    assert report.failures[0]["repeat"] == 0
    assert len(report.repeats) == 2


def test_run_study_aborts_on_majority_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("synthetic repeat failure")

    monkeypatch.setattr(experiment, "_run_repeat", broken)
    config = StudyConfig(budget=5.0, split="hf_only", repeats=2, master_seed=3,
                         model=_SMALL, reference_size=40, report_dims=4)
    with pytest.raises(RuntimeError):
        run_study(config)


def test_run_study_abort_names_the_first_failure(monkeypatch):
    def broken(rep, *args, **kwargs):
        raise ValueError(f"synthetic failure of repeat {rep}")

    monkeypatch.setattr(experiment, "_run_repeat", broken)
    config = StudyConfig(budget=5.0, split="hf_only", repeats=3, master_seed=3,
                         model=_SMALL, reference_size=40, report_dims=4)
    with pytest.raises(RuntimeError, match="3 of 3 repeats failed, first with "
                                           "ValueError: synthetic failure of repeat 0;"):
        run_study(config)


def test_run_study_rejects_a_reference_of_another_dimension(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a repeat ran against a mismatched reference")

    monkeypatch.setattr(experiment, "_run_repeat", unreachable)
    config = StudyConfig(budget=5.0, split="hf_only", repeats=2, master_seed=3,
                         model=_SMALL, reference_size=40, report_dims=4)
    reference = build_reference(AdvDiffConfig(n_hf=65, n_lf=17), 40, 40)
    with pytest.raises(ValueError, match="dimension 65"):
        run_study(config, reference)


def test_run_study_propagates_programming_errors(monkeypatch):
    original = experiment._run_repeat

    def buggy(rep, *args, **kwargs):
        if rep == 1:
            raise TypeError("synthetic programming error")
        return original(rep, *args, **kwargs)

    monkeypatch.setattr(experiment, "_run_repeat", buggy)
    config = StudyConfig(budget=5.0, split="hf_only", repeats=3, master_seed=2,
                         model=_SMALL, reference_size=40, report_dims=4)
    with pytest.raises(TypeError, match="synthetic programming error"):
        run_study(config)


def test_write_study_layout(tmp_path):
    config = StudyConfig(budget=5.0, split="even_split", repeats=2, master_seed=5,
                         model=_SMALL, reference_size=40, report_dims=4)
    report = run_study(config)
    files = write_study(report, tmp_path)
    names = sorted(os.path.basename(f) for f in files)
    assert names == ["captured_energy.csv", "eigenvalues.csv", "raw_eigenvalues.csv",
                     "repeats.csv", "report.json", "timings.csv"]
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["allocation"] == {"m0": 2, "m1": 6}
    assert payload["config"]["master_seed"] == 5
    assert len(payload["repeats"]) == 2
    header = (tmp_path / "captured_energy.csv").read_text().splitlines()[0]
    assert header == "repeat,r1,r2,r3,r4"


def test_generate_snapshot_files(tmp_path):
    config = StudyConfig(budget=5.0, split="even_split", master_seed=9, model=_SMALL)
    written = generate_snapshot_files(config, tmp_path)
    names = sorted(os.path.basename(f) for f in written)
    assert names == ["manifest.json", "snapshots_high.mfp1", "snapshots_low.mfp1"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["m0"] == 2 and manifest["m1"] == 6
    hf = read_snapshots(tmp_path / "snapshots_high.mfp1")
    lf = read_snapshots(tmp_path / "snapshots_low.mfp1")
    assert hf.shape == (129, 2) and lf.shape == (129, 6)
    # deterministic regeneration
    other = tmp_path / "again"
    generate_snapshot_files(config, other)
    for name in ("snapshots_high.mfp1", "snapshots_low.mfp1", "manifest.json"):
        assert (tmp_path / name).read_bytes() == (other / name).read_bytes()


def test_reference_energy_curve_monotone():
    ref = build_reference(_SMALL, 50, 20)
    curve = ref.energy_curve(10)
    assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
    assert curve[-1] <= 100.0 + 1e-9
