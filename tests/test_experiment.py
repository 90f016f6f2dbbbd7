import dataclasses
import gc
import json
import multiprocessing
import os
import threading
import time
import tracemalloc
import weakref
from functools import cached_property
from multiprocessing import resource_tracker
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfpod.experiment as experiment
import mfpod.mfpod as mfpod_module
import mfpod.models as models
import mfpod.solver as solver
from mfpod import (
    AdvDiffConfig,
    Metric,
    MfpFileError,
    ModelCosts,
    SnapshotSet,
    StudyConfig,
    allocate_budget,
    build_reference,
    fine_metric,
    generate_snapshot_files,
    make_model_pair,
    mass_matrix,
    mfpod_adaptive,
    mfpod_fixed,
    orthonormalize,
    pod,
    prolong,
    read_snapshots,
    run_study,
    sample_parameters,
    select_dim,
    snapshot,
    write_snapshots,
    write_study,
)
from mfpod.mfpod import _SPAN_BLOCK, MfBasis, SnapshotSpan

from conftest import banded_metric, random_instance

_SMALL = AdvDiffConfig(n_hf=129, n_lf=33)
# Reference sizes below and above the dimension n = 129 of _SMALL, and one
# that spans a hundred span blocks and a partial one.
_REFERENCE_SIZES = [60, 300, 100 * _SPAN_BLOCK + 17]


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
    thetas = experiment._midpoints(size, _SMALL.theta_range)
    return np.column_stack([snapshot(t, "high", _SMALL) for t in thetas])


def _score(vectors, ref) -> float:
    """Captured energy (percent) of the whole basis against the reference."""
    coords = ref.metric.to_coords(vectors)
    return experiment._energy_curve(coords, ref.weighted, ref.trace, max(coords.shape[1], 1))[-1]


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
        got = experiment._energy_curve(metric.to_coords(vectors), ref.weighted, ref.trace,
                                       vectors.shape[1])
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
    # the leading modes' metric coordinates
    got = experiment._energy_curve(phi[:, :20], ref.weighted, ref.trace, 20)
    np.testing.assert_allclose(got, ref.energy_curve(20), rtol=0, atol=1e-10)


def test_reference_span_grows_across_blocks():
    # the reference is solved one span block at a time, and directions still
    # join the span in the last block, after earlier blocks' moments have
    # been accumulated, so the moment's zero padding is exercised
    widths, growth = [], []
    orthonormalize_ = mfpod_module.orthonormalize

    def counted(thetas, fidelity, model):
        widths.append(len(thetas))
        return snapshot(thetas, fidelity, model)

    def recorded(vectors, metric, tol=1e-12):
        basis = orthonormalize_(vectors, metric, tol)
        growth.append((len(widths), basis.dim))
        return basis

    with mock.patch.object(experiment, "snapshot", counted), \
            mock.patch.object(mfpod_module, "orthonormalize", recorded):
        build_reference(_SMALL, 2 * _SPAN_BLOCK + 17, 40)
    assert widths == [_SPAN_BLOCK, _SPAN_BLOCK, 17]
    assert max(index for index, dim in growth if dim) == 3


@pytest.mark.parametrize("n_hf, size", [(129, 60), (129, 2 * _SPAN_BLOCK + 17), (129, 300),
                                        (4097, 3 * _SPAN_BLOCK + 17)])
def test_reference_is_bitwise_the_per_theta_reference(n_hf, size):
    # block-solved snapshots carry the bits of their one-by-one solves, and
    # so does everything the reference derives from them
    def per_theta(thetas, fidelity, model):
        return np.column_stack([snapshot(float(t), fidelity, model) for t in thetas])

    model = AdvDiffConfig(n_hf=n_hf, n_lf=33)
    blocked = build_reference(model, size, 40)
    with mock.patch.object(experiment, "snapshot", per_theta):
        oracle = build_reference(model, size, 40)
    for got, want in [(blocked.weighted, oracle.weighted), (blocked.eigvals, oracle.eigvals),
                      (np.float64(blocked.trace), np.float64(oracle.trace))]:
        assert got.tobytes() == want.tobytes()


def test_reference_build_holds_no_n_by_n_matrix():
    model = AdvDiffConfig(n_hf=8193, n_lf=33)
    tracemalloc.start()
    try:
        build_reference(model, 300, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.n_hf ** 2 * 8 / 4


def test_reference_build_memory_does_not_grow_with_size(monkeypatch):
    # one span block of snapshots is held at a time, whatever the size; both
    # builds stay in this process, since tracemalloc sees neither a forked
    # producer nor its shared ring
    monkeypatch.setattr(experiment, "_FORK_BREAK_EVEN", float("inf"))
    model = AdvDiffConfig(n_hf=4097, n_lf=33)
    peaks = []
    for size in (3 * _SPAN_BLOCK + 17, 40 * _SPAN_BLOCK):
        tracemalloc.start()
        try:
            build_reference(model, size, 40)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.5 * min(peaks)
    assert max(peaks) < 40 * model.n_hf * _SPAN_BLOCK * 8


def _serial_reference(model, size):
    with mock.patch.object(experiment, "_FORK_BREAK_EVEN", float("inf")):
        return build_reference(model, size, 40)


@pytest.mark.parametrize("n_hf, size", [(129, 2 * _SPAN_BLOCK + 17), (129, 10 * _SPAN_BLOCK + 17),
                                        (4097, 8 * _SPAN_BLOCK + 17)])
def test_forked_reference_has_the_serial_bytes(forked, n_hf, size):
    # fewer blocks than ring slots, and more, each size with a partial last block
    model = AdvDiffConfig(n_hf=n_hf, n_lf=33)
    serial = _serial_reference(model, size)
    got = build_reference(model, size, 40)
    assert len(forked) == 1
    for a, b in [(got.weighted, serial.weighted), (got.eigvals, serial.eigvals),
                 (np.float64(got.trace), np.float64(serial.trace))]:
        assert a.tobytes() == b.tobytes()


def test_reference_built_beside_another_thread_stays_serial(forked):
    # fork copies only the calling thread, with any lock another one holds
    built = []
    worker = threading.Thread(target=lambda: built.append(build_reference(_SMALL, 300, 40)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(built) == 1 and forked == []


def _first_thetas(*indices):
    """The first parameter of each given span block of a 10-block reference."""
    thetas = experiment._midpoints(10 * _SPAN_BLOCK, _SMALL.theta_range)
    return [thetas[index * _SPAN_BLOCK] for index in indices]


def _failing_on_block(*indices):
    """snapshot() that raises on the given span blocks of the reference."""
    firsts = _first_thetas(*indices)

    def failing(thetas, fidelity, model):
        if thetas[0] in firsts:
            raise ValueError(f"no solve at theta={thetas[0]!r}")
        return snapshot(thetas, fidelity, model)

    return failing


def _slow_in_producer(solved, delay=0.1):
    """experiment._reference_block that sleeps delay seconds in a forked
    producer, and records in solved the first parameter of each block this
    process solves."""
    parent, solve = os.getpid(), experiment._reference_block

    def slow(thetas, model, metric):
        if os.getpid() == parent:
            solved.append(thetas[0])
        else:
            time.sleep(delay)
        return solve(thetas, model, metric)

    return slow


def test_forked_reference_raises_the_producers_error(forked):
    with mock.patch.object(experiment, "snapshot", _failing_on_block(6)):
        with pytest.raises(ValueError) as serial:
            _serial_reference(_SMALL, 10 * _SPAN_BLOCK)
        with pytest.raises(ValueError) as got:
            build_reference(_SMALL, 10 * _SPAN_BLOCK, 40)
    assert type(got.value) is type(serial.value) and str(got.value) == str(serial.value)
    assert len(forked) == 1


def test_forked_reference_leaves_no_process_or_ring(forked):
    build_reference(_SMALL, 10 * _SPAN_BLOCK, 40)
    with mock.patch.object(experiment, "snapshot", _failing_on_block(6)), \
            pytest.raises(ValueError):
        build_reference(_SMALL, 10 * _SPAN_BLOCK, 40)
    # the span growth in this process raises while the producer runs ahead
    extend = experiment._extend_span
    grown = []

    def failing(*args):
        grown.append(None)
        if len(grown) == 2:
            raise np.linalg.LinAlgError("no span")
        return extend(*args)

    with mock.patch.object(experiment, "_extend_span", failing), \
            pytest.raises(np.linalg.LinAlgError, match="no span"):
        build_reference(_SMALL, 10 * _SPAN_BLOCK, 40)
    assert multiprocessing.active_children() == []
    assert len(forked) == 3 and all(ring.closed for ring in forked)


def test_forked_reference_solves_a_stalled_producers_share(forked, monkeypatch):
    # while the producer sleeps on a block, this process solves the next one,
    # and it still grows every block in order
    serial = _serial_reference(_SMALL, 10 * _SPAN_BLOCK)
    solved = []
    monkeypatch.setattr(experiment, "_reference_block", _slow_in_producer(solved))
    got = build_reference(_SMALL, 10 * _SPAN_BLOCK, 40)
    for a, b in [(got.weighted, serial.weighted), (got.eigvals, serial.eigvals),
                 (np.float64(got.trace), np.float64(serial.trace))]:
        assert a.tobytes() == b.tobytes()
    assert 2 * len(solved) >= 10
    assert multiprocessing.active_children() == [] and forked[0].closed


def test_forked_reference_solves_each_block_once(forked, monkeypatch, tmp_path):
    # both processes claim blocks from one counter; a pause between reading
    # and writing it opens the window a lost update needs, and slow solves
    # make both sides claim.  Appends under O_APPEND land whole, so the log
    # lists every solve on either side.
    log, solve, counter = tmp_path / "solved", experiment._reference_block, experiment._COUNTER

    def slow_read(ring):
        read = counter.unpack_from(ring)
        time.sleep(0.001)
        return read

    def logged(thetas, model, metric):
        with open(log, "a") as out:
            out.write(f"{float(thetas[0]).hex()}\n")
        time.sleep(0.002)
        return solve(thetas, model, metric)

    monkeypatch.setattr(experiment, "_reference_block", logged)
    monkeypatch.setattr(experiment, "_COUNTER", SimpleNamespace(
        size=counter.size, unpack_from=slow_read, pack_into=counter.pack_into))
    builds, size = 20, 10 * _SPAN_BLOCK + 17
    for _ in range(builds):
        build_reference(_SMALL, size, 40)
    firsts = experiment._midpoints(size, _SMALL.theta_range)[::_SPAN_BLOCK]
    assert sorted(log.read_text().split()) == sorted([float(t).hex() for t in firsts] * builds)
    assert len(forked) == builds


def test_forked_reference_behind_a_slow_span_growth_has_the_serial_bytes(forked, monkeypatch):
    # the producer runs ahead only as far as the ring holds blocks not yet copied out
    serial = _serial_reference(_SMALL, 10 * _SPAN_BLOCK + 17)
    extend = experiment._extend_span

    def slow(*args):
        time.sleep(0.02)
        return extend(*args)

    monkeypatch.setattr(experiment, "_extend_span", slow)
    got = build_reference(_SMALL, 10 * _SPAN_BLOCK + 17, 40)
    for a, b in [(got.weighted, serial.weighted), (got.eigvals, serial.eigvals),
                 (np.float64(got.trace), np.float64(serial.trace))]:
        assert a.tobytes() == b.tobytes()


def test_forked_reference_raises_the_error_of_a_block_solved_here(forked):
    # a slow producer leaves at least one of two adjacent blocks to this
    # process; whichever side meets which, the first failing block's error is
    # raised, as in the serial loop
    solved = []
    with mock.patch.object(experiment, "snapshot", _failing_on_block(6, 7)):
        with pytest.raises(ValueError) as serial:
            _serial_reference(_SMALL, 10 * _SPAN_BLOCK)
        with mock.patch.object(experiment, "_reference_block", _slow_in_producer(solved)), \
                pytest.raises(ValueError) as got:
            build_reference(_SMALL, 10 * _SPAN_BLOCK, 40)
    assert type(got.value) is type(serial.value) and str(got.value) == str(serial.value)
    assert set(_first_thetas(6, 7)) & set(solved)
    assert multiprocessing.active_children() == []
    assert len(forked) == 1 and forked[0].closed


def test_forked_reference_memory_does_not_grow_with_size(forked):
    # this process copies the producer's blocks out of the ring and solves
    # others itself, one block ahead at most; tracemalloc sees neither the
    # producer nor the ring.  The fork-context lock on the ring's counter is
    # unnamed, so no resource_tracker process starts.
    model = AdvDiffConfig(n_hf=4097, n_lf=33)
    peaks = []
    for size in (3 * _SPAN_BLOCK + 17, 40 * _SPAN_BLOCK):
        tracemalloc.start()
        try:
            build_reference(model, size, 40)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.5 * min(peaks)
    assert max(peaks) < 40 * model.n_hf * _SPAN_BLOCK * 8
    assert len(forked) == 2
    assert resource_tracker._resource_tracker._pid is None


def test_forked_producer_runs_off_the_parents_cpu(forked):
    # items solved slowly here leave most to the producer, which reports the
    # CPUs it may run on: all but the one this process was on at the fork
    parent, cpus = os.getpid(), os.sched_getaffinity(0)
    assert experiment._cpu_now() in cpus

    def where(item):
        if os.getpid() == parent:
            time.sleep(0.02)
        return np.array([os.getpid(), len(os.sched_getaffinity(0))], dtype=float)

    stream = experiment._solve_stream(list(range(12)), where, 2, 1.0)
    try:
        rows = np.array(list(stream))
    finally:
        stream.close()
    away = rows[rows[:, 0] != parent, 1]
    assert len(away) > 0 and np.all(away == len(cpus) - 1)
    assert multiprocessing.active_children() == [] and forked[0].closed


def _scores(ref, bases) -> np.ndarray:
    return np.concatenate([experiment._energy_curve(ref.metric.to_coords(v), ref.weighted,
                                                    ref.trace, v.shape[1]) for v in bases])


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
    midpoints = experiment._midpoints
    with mock.patch.object(experiment, "_midpoints",
                           lambda count, theta_range: midpoints(count, theta_range)[order]):
        shuffled = build_reference(_SMALL, 300, 40)
    assert shuffled.weighted.shape[1] == base.weighted.shape[1]
    np.testing.assert_allclose(shuffled.eigvals, base.eigvals, rtol=0, atol=1e-12 * base.trace)
    np.testing.assert_allclose(_scores(shuffled, bases), _scores(base, bases), rtol=0, atol=1e-10)


def test_reference_is_a_midpoint_rule_with_a_quadratic_error():
    # the midpoint rule's error is O(1/N^2): N^2 times the N-to-4N shift reads
    # 0.386 for the trace and at most 0.374 trace for the leading eigenvalues,
    # where a rule that weighs both endpoints fully reads about 2500 at N = 1e4
    size = 10_000
    coarse, fine = build_reference(_SMALL, size, 10), build_reference(_SMALL, 4 * size, 10)
    thetas = experiment._midpoints(4, (1.0, 100.0))
    np.testing.assert_allclose(thetas, [13.375, 38.125, 62.875, 87.625], rtol=1e-15)
    assert abs(coarse.trace - fine.trace) <= fine.trace / size**2
    np.testing.assert_allclose(coarse.eigvals, fine.eigvals, rtol=0, atol=fine.trace / size**2)
    # a fixed basis: the span of six drawn snapshots, truncated at r = 1..6
    metric = fine_metric(_SMALL)
    basis = orthonormalize(snapshot(sample_parameters(6, 11), "high", _SMALL), metric).vectors
    missed = [100.0 - np.array(experiment._energy_curve(
        metric.to_coords(basis), ref.weighted, ref.trace, basis.shape[1])) for ref in (coarse, fine)]
    np.testing.assert_allclose(missed[0], missed[1], rtol=1e-4, atol=0)


def test_captured_energy_trivial_cases(monkeypatch):
    metric = fine_metric(_SMALL)
    below, above = build_reference(_SMALL, 60, 40), build_reference(_SMALL, 300, 40)
    empty = np.zeros((metric.n, 0))
    assert experiment._energy_curve(empty, below.weighted, below.trace, 5) == [0.0] * 5
    # the span of the reference's own snapshots, and the whole space, hold everything
    span = orthonormalize(_reference_snapshots(60), metric).vectors
    assert _score(span, below) == pytest.approx(100.0, abs=1e-8)
    whole = orthonormalize(np.eye(metric.n), metric).vectors
    assert _score(whole, above) == pytest.approx(100.0, abs=1e-8)
    monkeypatch.setattr(experiment, "snapshot",
                        lambda thetas, fidelity, model: np.zeros((model.n_hf, len(thetas))))
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


@pytest.mark.parametrize("split, pipeline", [("even_split", "mfpod"), ("fixed_m0:3", "mfpod"),
                                             ("hf_only", "pod_hf"), ("lf_only", "pod_lf")])
def test_run_study_names_the_pipeline_of_each_split(split, pipeline):
    report = run_study(StudyConfig(budget=5.0, split=split, repeats=1, model=_SMALL,
                                   reference_size=60, report_dims=4))
    assert report.pipeline == pipeline and not report.failures
    assert (report.m0 == 0, report.m1 == 0) == (pipeline == "pod_lf", pipeline == "pod_hf")


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


def test_repeated_studies_and_snapshot_files_factor_no_further_metric(monkeypatch, tmp_path):
    # a list theta_range makes the model config unhashable, which the
    # metric cache must not mind
    model = AdvDiffConfig(theta_range=[1.0, 100.0], n_hf=129, n_lf=33)
    config = StudyConfig(budget=5.0, split="even_split", repeats=2, master_seed=4,
                         model=model, reference_size=40, report_dims=4)
    first = run_study(config)  # factors the metric unless an earlier test did
    factored = []
    original = Metric._factorize

    def counted(self, weight):
        factored.append(self.n)
        return original(self, weight)

    monkeypatch.setattr(Metric, "_factorize", counted)
    assert run_study(config).to_payload() == first.to_payload()
    generate_snapshot_files(config, tmp_path)
    assert factored == []


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


def _csv_rows(path) -> list[list[str]]:
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    return [line.split(",") for line in text.splitlines()]


@pytest.mark.parametrize("split, weight_mode, pipeline", [
    ("even_split", "pilot_alpha", "mfpod"), ("even_split", "adaptive", "mfpod"),
    ("hf_only", "pilot_alpha", "pod_hf"), ("lf_only", "pilot_alpha", "pod_lf")])
def test_write_study_files_hold_the_report_s_values_cell_by_cell(tmp_path, split, weight_mode,
                                                                 pipeline):
    config = StudyConfig(budget=5.0, split=split, weight_mode=weight_mode, repeats=2,
                         master_seed=5, model=_SMALL, reference_size=40, report_dims=4)
    report = run_study(config)
    assert report.pipeline == pipeline and len(report.repeats) == 2
    write_study(report, tmp_path)
    payload = report.to_payload()
    assert (tmp_path / "report.json").read_text() == json.dumps(payload, sort_keys=True,
                                                                indent=2) + "\n"
    curves = {"captured_energy.csv": "captured_energy", "eigenvalues.csv": "eigvals"}
    if pipeline == "mfpod":
        curves["raw_eigenvalues.csv"] = "raw_eigvals"
    else:
        assert not (tmp_path / "raw_eigenvalues.csv").exists()
    for name, key in curves.items():
        rows = _csv_rows(tmp_path / name)
        assert rows[0] == ["repeat", "r1", "r2", "r3", "r4"]
        assert rows[1:] == [[str(rec["repeat"])] + [repr(float(v)) for v in rec[key]]
                            for rec in report.repeats]
    rows = _csv_rows(tmp_path / "repeats.csv")
    assert rows[0] == ["repeat", "seed", "m0", "m1", "mode_count", "selected_r", "alphas"]
    assert rows[1:] == [
        [str(rec[c]) for c in ("repeat", "seed", "m0", "m1", "mode_count", "selected_r")]
        + [";".join(repr(float(a)) for a in rec["alphas"])] for rec in report.repeats]
    if weight_mode == "adaptive":
        assert any(";" in row[-1] for row in rows[1:])
    rows = _csv_rows(tmp_path / "timings.csv")
    assert rows[0] == ["repeat", "seconds"]
    assert rows[1:] == [[str(i), f"{t:.6f}"] for i, t in enumerate(report.timings)]
    assert all(len(s.split(".")[1]) == 6 for _, s in rows[1:])


_JSON_LEAVES = (
    st.integers(-2**70, 2**70) | st.booleans() | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
    | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
    | st.lists(st.floats(), max_size=3).map(np.array)
    | st.lists(st.integers(-9, 9), max_size=3).map(np.array)
    | st.lists(st.booleans(), max_size=3).map(np.array))
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=12)


def _assert_sanitized(obj, out):
    if isinstance(obj, dict):
        assert type(out) is dict and list(out) == list(obj)
        for key, value in obj.items():
            _assert_sanitized(value, out[key])
    elif isinstance(obj, (list, tuple, np.ndarray)):
        assert type(out) is list and len(out) == len(obj)
        for a, b in zip(obj, out):
            _assert_sanitized(a, b)
    elif isinstance(obj, (bool, np.bool_)):
        assert out is bool(obj)
    elif isinstance(obj, (float, np.floating)):
        if np.isfinite(obj):  # the same bits, sign of zero included
            assert type(out) is float and np.float64(out).tobytes() == np.float64(obj).tobytes()
        else:
            assert out is None
    else:
        assert type(out) is int and out == obj


@settings(derandomize=True, deadline=None, max_examples=300)
@given(obj=_JSON_TREES)
def test_jsonable_writes_strict_json_that_keeps_bools_and_float_bits(obj):
    out = experiment._jsonable(obj)
    text = json.dumps(out, allow_nan=False)  # a numpy value or a NaN would raise here
    assert json.loads(text) == out
    _assert_sanitized(obj, out)


@pytest.mark.parametrize("changes, top_modes, match", [
    ({"advection_sign": "literal"}, 40, "advection_sign"),
    ({"theta_range": (1.0, 50.0)}, 40, "theta_range"),
    ({"bc": (0.0, 1.0)}, 40, "bc"),
    ({}, 3, "keeps 3 eigenvalues"),
], ids=["advection_sign", "theta_range", "bc", "top_modes"])
def test_run_study_rejects_a_reference_built_for_another_study(monkeypatch, changes, top_modes,
                                                               match):
    def unreachable(*args, **kwargs):
        raise AssertionError("a model pair was built for a mismatched reference")

    reference = build_reference(dataclasses.replace(_SMALL, **changes), 40, top_modes)
    monkeypatch.setattr(experiment, "make_model_pair", unreachable)
    config = StudyConfig(budget=5.0, split="even_split", repeats=2, master_seed=3,
                         model=_SMALL, reference_size=40, report_dims=4)
    with pytest.raises(ValueError, match=match):
        run_study(config, reference)


def test_run_study_accepts_a_reference_of_another_surrogate_or_all_its_eigenvalues():
    config = StudyConfig(budget=5.0, split="even_split", repeats=2, master_seed=3,
                         model=_SMALL, reference_size=3, report_dims=4)
    # another surrogate mesh, a list theta_range, and three snapshots with three eigenvalues
    shared = build_reference(dataclasses.replace(_SMALL, n_lf=17, theta_range=[1.0, 100.0]), 3, 40)
    assert len(shared.eigvals) == 3
    assert run_study(config, shared).to_payload() == run_study(config).to_payload()


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


# -- the surrogate kept in its coarse space ------------------------------------

_LIFTED_MODELS = (AdvDiffConfig(n_hf=129, n_lf=17), AdvDiffConfig(n_hf=257, n_lf=17))
_STUDY_PIPELINES = (("even_split", "pilot_alpha"), ("even_split", "adaptive"),
                    ("lf_only", "pilot_alpha"))


def _agree(got, want, top) -> None:
    """Same mode count and selected r, corrected eigenvalues within 1e-11 top."""
    assert (got[0], got[1]) == (want[0], want[1])
    np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-11 * top)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(model=st.sampled_from(_LIFTED_MODELS), seed=st.integers(0, 2**32 - 1),
       m0=st.integers(2, 6), extra=st.integers(1, 150), alpha=st.floats(0.0, 1.2))
def test_lifted_surrogate_matches_its_prolonged_columns(model, seed, m0, extra, alpha):
    # the same draws as coarse coefficients of the pair's lift and as
    # prolonged dense columns, through every study fit and through pod
    pair = make_model_pair(model)
    metric = pair.metric
    _, hf, coarse = models._draw(pair, m0, m0 + extra, seed, lifted=True)
    lf = prolong(coarse, model.n_hf)
    lifted = SnapshotSet.two_level(hf, coarse, 1.0, 0.1, pair.lift)
    dense = SnapshotSet.two_level(hf, lf, 1.0, 0.1)
    for mode in ("pilot_alpha", f"fixed:{alpha!r}", "adaptive"):
        got, want = (experiment._fit_mfpod(s, mode, 0.9999, metric)[0] for s in (lifted, dense))
        _agree((got.mode_count, got.selected_dim, got.corrected_eigvals),
               (want.mode_count, want.selected_dim, want.corrected_eigvals),
               want.corrected_eigvals[0])
    got, want = pod(coarse, metric, pair.lift), pod(lf, metric)
    _agree((got.basis.dim, select_dim(got.eigvals, 0.9999), got.eigvals),
           (want.basis.dim, select_dim(want.eigvals, 0.9999), want.eigvals), want.eigvals[0])


def _lifted_study(split, weight_mode, reference, master_seed=6):
    model = _LIFTED_MODELS[1]
    return run_study(StudyConfig(budget=5.0, split=split, weight_mode=weight_mode, repeats=3,
                                 master_seed=master_seed, model=model, reference_size=60,
                                 report_dims=8), reference)


def test_a_model_pair_without_a_lift_runs_the_dense_route(monkeypatch):
    reference = build_reference(_LIFTED_MODELS[1], 60, 40)
    lifted = [_lifted_study(split, mode, reference) for split, mode in _STUDY_PIPELINES]
    monkeypatch.setattr(experiment, "make_model_pair", lambda model: dataclasses.replace(
        make_model_pair(model), lift=None, coarse=None))
    for (split, mode), want in zip(_STUDY_PIPELINES, lifted):
        got = _lifted_study(split, mode, reference)
        assert not got.failures and len(got.repeats) == len(want.repeats) == 3
        for a, b in zip(got.repeats, want.repeats):
            assert (a["mode_count"], a["selected_r"]) == (b["mode_count"], b["selected_r"])
            np.testing.assert_allclose(a["captured_energy"], b["captured_energy"], rtol=1e-9)


def test_study_repeats_never_form_a_fine_surrogate_block(monkeypatch):
    model = _LIFTED_MODELS[1]
    reference = build_reference(model, 60, 40)
    calls, lift_growths, ranks = {"prolong": 0, "low": 0}, [], []
    prolong_, extend, from_sets = models.prolong, mfpod_module._extend_span, SnapshotSpan.from_sets

    def counted_prolong(*args):
        calls["prolong"] += 1
        return prolong_(*args)

    def counted_pair(model):
        pair = make_model_pair(model)

        def low(theta):
            calls["low"] += 1
            return pair.low(theta)
        return dataclasses.replace(pair, low=low)

    def recorded_extend(lift, q, t, scale):
        # a span grown from nothing, without a lift part: in a lifted study, only the lift's
        if lift.shape[1] == q.shape[1] == 0:
            lift_growths.append(t.shape)
        return extend(lift, q, t, scale)

    def recorded_span(cls, sets, metric):
        span = from_sets.__func__(cls, sets, metric)
        ranks.append(span.rank)
        return span

    monkeypatch.setattr(mfpod_module, "_extend_span", recorded_extend)
    models._prolongation.cache_clear()
    make_model_pair(model)  # the built-in lift is prolonged and its span grown once per mesh pair
    monkeypatch.setattr(models, "prolong", counted_prolong)
    monkeypatch.setattr(experiment, "make_model_pair", counted_pair)
    monkeypatch.setattr(SnapshotSpan, "from_sets", classmethod(recorded_span))
    for master_seed in (6, 7):  # two studies of each pipeline on one mesh pair
        for split, mode in _STUDY_PIPELINES:
            assert not _lifted_study(split, mode, reference, master_seed).failures
    assert calls == {"prolong": 0, "low": 0}
    assert lift_growths == [(model.n_hf, model.n_lf)]
    m0 = allocate_budget(5.0, ModelCosts.from_config(model), "even_split")[0]
    assert ranks and max(ranks) <= model.n_lf + m0


def test_study_fits_and_scoring_never_leave_metric_coordinates(monkeypatch):
    # the modes of a repeat and the reference stay in metric coordinates, so
    # neither fitting, scoring nor the reference build maps an n-vector back
    # or applies W of the fine-mesh metric, a study's one weighted metric;
    # the POD baselines score the coordinates of their one-level fit too
    calls = []
    for name in ("from_coords", "apply"):
        def counted(self, x, _name=name, _original=getattr(Metric, name)):
            if self.kind == "weighted":
                calls.append(_name)
            return _original(self, x)
        monkeypatch.setattr(Metric, name, counted)
    for split, mode in (("even_split", "pilot_alpha"), ("even_split", "adaptive"),
                        ("hf_only", "pilot_alpha"), ("lf_only", "pilot_alpha")):
        report = run_study(StudyConfig(budget=5.0, split=split, weight_mode=mode, repeats=3,
                                       master_seed=6, model=_LIFTED_MODELS[1],
                                       reference_size=60, report_dims=8))
        assert not report.failures and min(rec["mode_count"] for rec in report.repeats) > 0
    assert calls == []


def test_study_repeats_form_no_n_row_basis_mode_or_score(monkeypatch):
    # a repeat stays in span coordinates from its span to its captured energy:
    # nothing forms the n x k span basis Q, the n-row modes Q y or their signs
    model = _LIFTED_MODELS[1]
    reference = build_reference(model, 60, 40)
    formed = []
    for owner, name in ((SnapshotSpan, "basis"), (MfBasis, "coords")):
        def counted(self, _real=getattr(owner, name).func, _name=f"{owner.__name__}.{name}"):
            formed.append(_name)
            return _real(self)
        spy = cached_property(counted)
        spy.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, spy)

    def fix_signs(vectors, _real=solver._fix_signs):
        if len(vectors) == model.n_hf:
            formed.append("_fix_signs")
        return _real(vectors)

    monkeypatch.setattr(mfpod_module, "_fix_signs", fix_signs)
    monkeypatch.setattr(solver, "_fix_signs", fix_signs)
    for split, mode in (("even_split", "pilot_alpha"), ("even_split", "adaptive"),
                        ("hf_only", "pilot_alpha"), ("lf_only", "pilot_alpha")):
        report = run_study(StudyConfig(budget=5.0, split=split, weight_mode=mode, repeats=3,
                                       master_seed=6, model=model, reference_size=60,
                                       report_dims=8), reference)
        assert not report.failures and min(rec["mode_count"] for rec in report.repeats) > 0
    assert formed == []


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 40), bandwidth=st.integers(0, 3),
       lifted=st.booleans(), adaptive=st.booleans())
def test_modes_kept_in_span_coordinates_match_their_metric_coordinates(seed, n, bandwidth,
                                                                       lifted, adaptive):
    # a fit keeps its modes as coordinates y on its span's Q: the metric
    # coordinates formed on read are Q y with their signs fixed, y is
    # orthonormal, and the captured energy read off y matches that of Q y
    rng = np.random.default_rng(seed)
    metric = Metric.euclidean(n) if bandwidth == 0 else banded_metric(rng, n, bandwidth)
    if lifted:
        lift = rng.standard_normal((n, n // 2))
        coeffs = rng.standard_normal((n // 2, 12))
        hf = lift @ coeffs[:, :4] + 0.1 * rng.standard_normal((n, 4))
        sets = SnapshotSet.two_level(hf, coeffs, 1.0, 0.125, mfpod_module._lift(lift, metric))
    else:
        sets = random_instance(rng, n, 4, 12, metric)
    mf = mfpod_adaptive(sets, 0.9999, metric)[0] if adaptive else mfpod_fixed(
        sets, (0.7,), 0.9999, metric)
    span, y = mf._span, mf._y
    assert mf.mode_count > 0
    assert mf.coords.tobytes() == solver._fix_signs(span.basis @ y).tobytes()
    np.testing.assert_allclose(y.T @ y, np.eye(mf.mode_count), rtol=0, atol=1e-12)
    weighted = rng.standard_normal((n, 7))
    trace = float(np.sum(weighted**2))
    head = np.vstack([part.T @ weighted for part in span._parts])
    dims = mf.mode_count
    np.testing.assert_allclose(experiment._energy_curve(y, head, trace, dims),
                               experiment._energy_curve(mf.coords, weighted, trace, dims),
                               rtol=1e-13)


def test_a_lift_record_spans_its_own_matrix():
    # each lift record carries the span of its own matrix, so the records
    # of L and 2 L give the POD of snapshots twice as large
    pair = make_model_pair(_LIFTED_MODELS[0])
    coarse = pair.coarse(sample_parameters(40, 3, _LIFTED_MODELS[0].theta_range))
    before = pod(coarse, pair.metric, mfpod_module._lift(pair.lift.matrix, pair.metric))
    after = pod(coarse, pair.metric, mfpod_module._lift(2.0 * pair.lift.matrix, pair.metric))
    np.testing.assert_allclose(after.eigvals, 4.0 * before.eigvals, rtol=0,
                               atol=1e-12 * after.eigvals[0])
    assert pair.lift.matrix.flags.writeable is False


def test_a_lift_span_is_grown_once_per_mesh_pair(monkeypatch):
    # two model pairs and two studies of each pipeline on one mesh pair
    # grow the lift's span once, when the first pair is made, and the
    # reference built after other meshes' metrics shares the lift's metric
    model = _LIFTED_MODELS[1]
    lifts, real = [], mfpod_module._lift

    def counted(matrix, metric):
        lifts.append(matrix.shape)
        return real(matrix, metric)

    monkeypatch.setattr(models, "_lift", counted)
    models._prolongation.cache_clear()
    first, second = make_model_pair(model), make_model_pair(model)
    for n in range(3, 23):  # more meshes than a 16-entry metric cache holds
        models._mass_metric(n)
    reference = build_reference(model, 60, 40)
    assert first.lift is second.lift and first.lift.metric is reference.metric
    for master_seed in (6, 7):
        for split, mode in _STUDY_PIPELINES:
            assert not _lifted_study(split, mode, reference, master_seed).failures
    assert lifts == [(model.n_hf, model.n_lf)]


def test_a_dropped_model_pair_frees_its_lift_span():
    # no module-level cache outlives the pair's own: once the mesh pair's
    # record is dropped, nothing holds its Q_L
    model = AdvDiffConfig(n_hf=65, n_lf=17)
    models._prolongation.cache_clear()
    pair = make_model_pair(model)
    thetas = pair.sampler(12, 0)
    sets = SnapshotSet.two_level(pair.high(thetas[:3]), pair.coarse(thetas), 1.0, 0.1, pair.lift)
    span = SnapshotSpan.from_sets(sets, pair.metric)
    basis = weakref.ref(pair.lift.basis)
    assert span._parts[0] is basis()
    models._prolongation.cache_clear()
    del pair, sets, span
    gc.collect()
    assert basis() is None


def test_a_lift_must_be_a_record_in_the_span_s_metric():
    pair = make_model_pair(_LIFTED_MODELS[0])
    coarse = pair.coarse(sample_parameters(9, 3, _LIFTED_MODELS[0].theta_range))
    hf = pair.high(sample_parameters(2, 3, _LIFTED_MODELS[0].theta_range))
    with pytest.raises(TypeError, match="lift record"):
        pod(coarse, pair.metric, np.array(pair.lift.matrix))
    with pytest.raises(TypeError, match="lift record"):
        SnapshotSet.two_level(hf, coarse, 1.0, 0.1, pair.lift.matrix)
    other = Metric.from_weight(mass_matrix(_LIFTED_MODELS[0].n_hf))
    for lift, metric in ((pair.lift, other),
                         (mfpod_module._lift(pair.lift.matrix, other), pair.metric)):
        with pytest.raises(ValueError, match="metric"):
            pod(coarse, metric, lift)
        with pytest.raises(ValueError, match="metric"):
            mfpod_fixed(SnapshotSet.two_level(hf, coarse, 1.0, 0.1, lift), (0.5,), 0.9999, metric)
