import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfpod.experiment as experiment
import mfpod.models as models

from mfpod import (
    AdvDiffConfig,
    Basis,
    Metric,
    SnapshotSet,
    convergence_study,
    eigenvalue_sum_mse,
    make_model_pair,
    mass_matrix,
    mfpod_adaptive,
    mfpod_fixed,
    optimal_alpha,
    pod,
    read_snapshots,
    reference_matrix,
)
from mfpod.cli import main
from mfpod.mfpod import SnapshotSpan

from conftest import column_profile


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_pod_mfpod_pipeline(capsys, tmp_path):
    gen = tmp_path / "gen"
    code, out, err = _run(capsys, "generate", "--budget", "40", "--split", "even",
                          "--seed", "3", "--n-hf", "129", "--n-lf", "33",
                          "--out", str(gen))
    assert code == 0, err
    assert sorted(os.listdir(gen)) == ["manifest.json", "snapshots_high.mfp1",
                                       "snapshots_low.mfp1"]

    for name in ("snapshots_high.mfp1", "snapshots_low.mfp1"):
        podout = tmp_path / "pod" / name
        code, out, err = _run(capsys, "pod", "--input", str(gen / name), "--out", str(podout))
        assert code == 0, err
        summary = json.loads(out)
        kept = summary["mode_count"]
        assert kept >= 1
        assert read_snapshots(podout / "modes.mfp1").shape == (129, kept)
        # one row per snapshot, exact zeros past the retained modes
        rows = [row.split(",") for row in (podout / "eigenvalues.csv").read_text().splitlines()[1:]]
        assert len(rows) == read_snapshots(gen / name).shape[1]
        assert all(float(v) > 0 for _, v in rows[:kept])
        assert all(v == "0.0" for _, v in rows[kept:])
    assert len(rows) > kept  # 60 prolonged 33-node snapshots span fewer dimensions

    mfout = tmp_path / "mf"
    code, out, err = _run(capsys, "mfpod", "--hf", str(gen / "snapshots_high.mfp1"),
                          "--lf", str(gen / "snapshots_low.mfp1"),
                          "--alpha", "pilot", "--out", str(mfout))
    assert code == 0, err
    summary = json.loads(out)
    assert summary["mode_count"] > 0
    assert len(summary["alphas"]) == 1
    rows = (mfout / "eigenvalues.csv").read_text().splitlines()[1:]
    assert len(rows) == summary["mode_count"]
    assert all(float(raw) <= float(cor) for _, raw, cor in (row.split(",") for row in rows))


def test_pod_and_mfpod_eigenvalue_files_hold_each_value_as_its_repr(capsys, tmp_path):
    gen, out = tmp_path / "gen", tmp_path / "out"
    _run(capsys, "generate", "--budget", "5", "--seed", "1", "--n-hf", "129", "--n-lf", "33",
         "--out", str(gen))
    hf, lf = (str(gen / f"snapshots_{f}.mfp1") for f in ("high", "low"))
    metric = Metric.from_weight(mass_matrix(129))
    for argv, columns in ((("pod", "--input", hf), {"eigval": None}),
                          (("mfpod", "--hf", hf, "--lf", lf, "--alpha", "0.7"),
                           {"raw": None, "corrected": None})):
        code, _, err = _run(capsys, *argv, "--out", str(out))
        assert code == 0, err
        if argv[0] == "pod":
            columns["eigval"] = pod(read_snapshots(hf), metric).eigvals
        else:
            sets = SnapshotSet.two_level(read_snapshots(hf), read_snapshots(lf), 1.0, 33.0 / 4097.0)
            mf = mfpod_fixed(sets, (0.7,), 0.9999, metric)
            columns.update(raw=mf.raw_eigvals, corrected=mf.corrected_eigvals)
        want = "".join(",".join([str(i)] + [repr(float(v)) for v in row]) + "\n"
                       for i, row in enumerate(zip(*columns.values())))
        assert (out / "eigenvalues.csv").read_text() == ",".join(["index", *columns]) + "\n" + want


@pytest.mark.parametrize("alpha", ["pilot", "adaptive", "0.7"])
def test_mfpod_adaptive_flag(capsys, tmp_path, alpha):
    gen = tmp_path / "gen"
    _run(capsys, "generate", "--budget", "5", "--split", "even", "--seed", "1",
         "--n-hf", "129", "--n-lf", "33", "--out", str(gen))
    code, out, err = _run(capsys, "mfpod", "--hf", str(gen / "snapshots_high.mfp1"),
                          "--lf", str(gen / "snapshots_low.mfp1"),
                          "--alpha", alpha, "--out", str(tmp_path / "mfa"))
    assert code == 0, err
    summary = json.loads(out)
    assert ("termination" in summary) == (alpha == "adaptive")
    # the same fit through the library, on the same files and default flags
    hf, lf = (read_snapshots(gen / f"snapshots_{f}.mfp1") for f in ("high", "low"))
    metric = Metric.from_weight(mass_matrix(hf.shape[0]))
    sets = SnapshotSet.two_level(hf, lf, 1.0, 33.0 / 4097.0)
    if alpha == "adaptive":
        want, trace = mfpod_adaptive(sets, 0.9999, metric)
        assert summary["alphas"] == list(trace.alphas) and len(trace.alphas) >= 1
    else:
        # files fit as a study repeat does: the pilot weight is read off the span
        span = SnapshotSpan.from_sets(sets, metric)
        pilot = optimal_alpha(span.profile(np.zeros((span.rank, 0))))[0]
        columns = optimal_alpha(column_profile(Basis.empty(metric), sets))[0]
        assert pilot == pytest.approx(columns, rel=1e-9)  # the column route stays the oracle
        weight = pilot if alpha == "pilot" else 0.7
        assert summary["alphas"] == [weight]
        want = mfpod_fixed(sets, (weight,), 0.9999, metric)
    assert (summary["mode_count"], summary["selected_r"]) == (want.mode_count, want.selected_dim)


def test_study_command(capsys, tmp_path):
    out_dir = tmp_path / "study"
    code, out, err = _run(capsys, "study", "--budget", "5", "--repeats", "2",
                          "--seed", "2", "--n-hf", "129", "--n-lf", "33",
                          "--reference-size", "50", "--report-dims", "5",
                          "--out", str(out_dir))
    assert code == 0, err
    summary = json.loads(out)
    assert summary["pipeline"] == "mfpod"
    assert summary["failures"] == 0
    assert (out_dir / "report.json").exists()


def test_a_study_into_a_used_directory_leaves_no_other_study_s_file(capsys, tmp_path):
    # an hf-only study writes no raw eigenvalues, so an even-split study's must go
    flags = ("--budget", "5", "--repeats", "2", "--seed", "2", "--n-hf", "129", "--n-lf", "33",
             "--reference-size", "50", "--report-dims", "5", "--out", str(tmp_path))
    assert _run(capsys, "study", "--split", "even", *flags)[0] == 0
    assert (tmp_path / "raw_eigenvalues.csv").exists()
    code, out, err = _run(capsys, "study", "--split", "hf-only", *flags)
    assert code == 0, err
    assert json.loads(out)["pipeline"] == "pod_hf"
    assert sorted(os.listdir(tmp_path)) == ["captured_energy.csv", "eigenvalues.csv",
                                            "repeats.csv", "report.json", "timings.csv"]


def test_a_draw_into_a_used_directory_leaves_no_other_draw_s_file(capsys, tmp_path):
    flags = ("--budget", "5", "--seed", "3", "--n-hf", "129", "--n-lf", "33", "--out", str(tmp_path))
    assert _run(capsys, "generate", "--split", "even", *flags)[0] == 0
    code, _, err = _run(capsys, "generate", "--split", "hf-only", *flags)
    assert code == 0, err
    assert json.loads((tmp_path / "manifest.json").read_text())["m1"] == 0
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "snapshots_high.mfp1"]


def test_verify_command(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    code, out, err = _run(capsys, "verify", "--check", "both", "--m0-grid", "2,4",
                          "--repeats", "30", "--n-hf", "65", "--n-lf", "17",
                          "--reference-size", "150", "--out", str(out_file))
    assert code == 0, err
    summary = json.loads(out)
    assert "convergence" in summary and "eigsum" in summary
    assert out_file.exists()
    on_disk = json.loads(out_file.read_text())
    assert on_disk["convergence"]["slope"] == summary["convergence"]["slope"]


@pytest.fixture(scope="module")
def verify_studies():
    """The verify studies of _VERIFY_FLAGS from direct library calls."""
    pair = make_model_pair(AdvDiffConfig(n_hf=65, n_lf=17, advection_sign="boundary_layer"))
    reference = reference_matrix(pair, 150, 3)
    conv = convergence_study(pair, 3, (2, 4), 30, 3, alpha=0.75, reference=reference)
    study = eigenvalue_sum_mse(pair, 2, (2, 4), 30, 3, alpha=0.75, q1=3,
                               gamma_hat=conv.gamma_hat, reference=reference)
    return conv, study


_VERIFY_FLAGS = ("--m0-grid", "2,4", "--repeats", "30", "--n-hf", "65", "--n-lf", "17",
                 "--reference-size", "150", "--seed", "3", "--alpha", "0.75", "--q1", "3",
                 "--r", "2")


@pytest.mark.parametrize("check", ["convergence", "eigsum", "both"])
def test_verify_prints_the_named_study_fields(capsys, verify_studies, check):
    conv, study = verify_studies
    code, out, err = _run(capsys, "verify", "--check", check, *_VERIFY_FLAGS)
    assert code == 0, err
    want = {"m0_grid": [2, 4], "q1": 3, "alpha": 0.75}
    if check != "eigsum":
        want["convergence"] = {"mean_sq_errors": list(conv.mean_sq_errors), "slope": conv.slope,
                               "gamma_hat": conv.gamma_hat, "exact": conv.exact}
    if check != "convergence":
        want["eigsum"] = {
            "r": study.r, "mse": list(study.mse), "bound": list(study.bound),
            "alignment_mean_sq": list(study.alignment_mean_sq),
            "alignment_bound": list(study.alignment_bound),
            "symmetry_max_dev": study.symmetry_max_dev, "spectral_gap": study.spectral_gap,
            "gap_degenerate": study.gap_degenerate,
        }
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_literal_verify_writes_strict_json(capsys, tmp_path):
    # the literal model's exact operator leaves no slope to fit and no
    # spectral gap, so its slope and alignment values are not finite
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    out_file = tmp_path / "verify.json"
    code, out, err = _run(capsys, "verify", "--model", "literal", "--n-hf", "33", "--n-lf", "9",
                          "--repeats", "30", "--reference-size", "200", "--m0-grid", "2,4",
                          "--out", str(out_file))
    assert code == 0, err
    summary = json.loads(out, parse_constant=reject)
    assert summary.pop("written") == [str(out_file)]
    assert json.loads(out_file.read_text(), parse_constant=reject) == summary
    assert summary["convergence"]["slope"] is None
    eigsum = summary["eigsum"]
    assert eigsum["alignment_mean_sq"] == eigsum["alignment_bound"] == [None, None]
    assert np.isfinite(eigsum["mse"] + eigsum["bound"]).all()


def test_forked_verify_writes_the_serial_bytes(capsys, forked, tmp_path):
    out_file = tmp_path / "verify.json"  # one path, since stdout names it

    def run():
        code, out, err = _run(capsys, "verify", "--check", "both", "--m0-grid", "2,4,8",
                              "--repeats", "30", "--n-hf", "129", "--n-lf", "17",
                              "--reference-size", "3000", "--seed", "3", "--out", str(out_file))
        assert code == 0, err
        return out, out_file.read_bytes()

    with mock.patch.object(experiment, "_FORK_BREAK_EVEN", float("inf")):
        serial = run()
    assert run() == serial
    assert len(forked) == 3 and all(ring.closed for ring in forked)


def test_verify_builds_its_reference_once(capsys, monkeypatch):
    import mfpod.cli as cli
    import mfpod.verify as verify

    calls = []
    original = verify.reference_matrix

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    # the library's own lookups and the command's, whichever makes the call
    monkeypatch.setattr(verify, "reference_matrix", counted)
    monkeypatch.setattr(cli, "reference_matrix", counted, raising=False)
    code, out, err = _run(capsys, "verify", "--check", "both", "--m0-grid", "2,4",
                          "--repeats", "30", "--n-hf", "65", "--n-lf", "17",
                          "--reference-size", "150", "--seed", "3")
    assert code == 0, err
    assert calls == [(150, 3)]


def test_usage_errors_are_json(capsys):
    code, out, err = _run(capsys, "study", "--bogus-flag", "1")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["kind"] == "usage"
    code, out, err = _run(capsys, "mfpod", "--hf", "a", "--lf", "b",
                          "--alpha", "sideways", "--out", "c")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["kind"] == "usage"


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_non_finite_alpha_is_a_usage_error(capsys, tmp_path, alpha):
    code, out, err = _run(capsys, "study", "--budget", "5", "--alpha", alpha, "--repeats", "2",
                          "--reference-size", "40", "--n-hf", "129", "--n-lf", "33",
                          "--out", str(tmp_path / "s"))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["kind"] == "usage"
    code, out, err = _run(capsys, "mfpod", "--hf", "a", "--lf", "b", "--alpha", alpha,
                          "--out", str(tmp_path / "m"))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["kind"] == "usage"


_SMALL_MODEL = ("--n-hf", "65", "--n-lf", "17")


@pytest.mark.parametrize("argv", [
    ("study", "--budget", "-1"),
    ("study", "--budget", "5", "--kappa", "2"),
    ("study", "--budget", "5", "--split", "m0=abc"),
    ("study", "--budget", "5", "--n-lf", "2"),
    ("generate", "--budget", "5", "--split", "m0=0"),
    ("verify", "--m0-grid", "2,a"),
    ("verify", "--m0-grid", "4,2"),
    ("verify", "--repeats", "5"),
    ("verify", "--q1", "1"),
    ("verify", "--r", "0"),
    ("verify", "--r", "65"),
    ("verify", "--alpha", "nan"),
    ("verify", "--alpha", "inf"),
    ("verify", "--reference-size", "0"),
    ("study", "--budget", "5", "--seed", "-1"),
    ("generate", "--budget", "5", "--seed", "-1"),
    ("verify", "--seed", "-1"),
    ("verify", "--n-hf", "4097"),
    ("verify", "--n-lf", "65"),
])
def test_malformed_flag_values_are_usage_errors_before_any_reference(capsys, monkeypatch,
                                                                     tmp_path, argv):
    import mfpod.experiment as experiment
    import mfpod.verify as verify

    def unreachable(*args, **kwargs):
        raise AssertionError("a reference was built for a malformed command")

    monkeypatch.setattr(verify, "reference_matrix", unreachable)
    monkeypatch.setattr("mfpod.cli.reference_matrix", unreachable, raising=False)
    monkeypatch.setattr(experiment, "build_reference", unreachable)
    out = () if argv[0] == "verify" else ("--out", str(tmp_path / "o"))
    code, _, err = _run(capsys, argv[0], *_SMALL_MODEL, *argv[1:], *out)
    assert code == 2, err
    assert json.loads(err.strip().splitlines()[-1])["kind"] == "usage"
    assert not (tmp_path / "o").exists()


# Each subcommand's flags, as (values its checks pass, values they refuse); a
# value names one token per flag of its key, and None leaves the flags at their
# defaults.  A draw refuses at most one key, so that valid commands run too, and
# stays small: n_hf <= 65 where it can run, a 40-snapshot reference, <= 30 repeats.
_SHARED = {"--seed": ([None, "3"], ["-1"]), "--model": ([None, "literal"], [])}
_DRAW = {**_SHARED,
         "--n-hf --n-lf": (["17 5", "33 9", "65 17", "17 17", "33 33"], ["17 4", "17 33", "17 2"]),
         "--budget": (["0.5", "3", "5", "12"], ["-1", "nan", "inf", "x"]),
         "--split": ([None, "hf-only", "lf-only", "m0=1", "m0=3"], ["m0=0", "m0=abc", "odd"])}
_GRAMMAR = {
    "generate": _DRAW,
    "study": {**_DRAW, "--alpha": ([None, "adaptive", "0.7"], ["inf", "nan", "sideways"]),
              "--kappa": ([None, "1"], ["0", "2"]), "--repeats": (["1", "2"], ["0"]),
              "--reference-size": (["40"], ["0"]), "--report-dims": ([None, "4"], ["0"])},
    "verify": {**_SHARED,
               "--n-hf --n-lf": (["17 5", "33 9", "65 17"], ["17 17", "33 33", "4097 33", "17 4"]),
               "--check": ([None, "convergence", "eigsum"], []), "--q1": ([None, "3"], ["1"]),
               "--m0-grid": (["2,4"], ["4,2", "2", "0,2", "2,a"]), "--repeats": (["30"], ["5"]),
               "--alpha": ([None, "0.75"], ["nan", "inf"]), "--r": ([None, "2"], ["0", "65"]),
               "--reference-size": (["40"], ["0"]), "--out": ([None, "OUT"], [])},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    grammar = _GRAMMAR[command]
    refused = draw(st.sampled_from([None, *grammar]))
    argv = [command]
    for flags, (ok, bad) in grammar.items():
        value = draw(st.sampled_from(bad if flags == refused and bad else ok))
        if value is not None:
            argv += [token for pair in zip(flags.split(), value.split()) for token in pair]
    return argv


def _counted(calls, name, function):
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return counted


def _allocation(calls, allocate):
    def allocation(*args):
        try:
            return allocate(*args)
        except ValueError:
            calls["refused"] += 1
            raise
    return allocation


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=_argv())
@example(argv=["study", "--n-hf", "33", "--n-lf", "33", "--budget", "5", "--repeats", "2",
               "--reference-size", "40"])
@example(argv=["generate", "--n-hf", "33", "--n-lf", "33", "--budget", "5"])
@example(argv=["verify", "--n-hf", "33", "--n-lf", "33", "--m0-grid", "2,4", "--repeats", "30",
               "--reference-size", "40"])
@example(argv=["study", "--n-hf", "65", "--n-lf", "17", "--budget", "3", "--alpha", "pilot",
               "--repeats", "2", "--reference-size", "40"])
def test_usage_and_allocation_errors_cost_no_solve_and_no_lift(argv):
    # every model solve and lift growth in this process: the forked producer is off,
    # the pair's lift is grown afresh, not read from the per-mesh cache, and
    # models calls mfpod._lift by its own name
    calls = dict.fromkeys(("solve", "block", "lift", "refused"), 0)
    models._prolongation.cache_clear()
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        out = os.path.join(tmp, "o")
        argv = [os.path.join(out, "verify.json") if a == "OUT" else a for a in argv]
        if argv[0] != "verify":
            argv += ["--out", out]
        for module, name, wrap in (
                (models, "solve_adv_diff", _counted(calls, "solve", models.solve_adv_diff)),
                (models, "_solve_block", _counted(calls, "block", models._solve_block)),
                (models, "_lift", _counted(calls, "lift", models._lift)),
                (experiment, "allocate_budget", _allocation(calls, experiment.allocate_budget)),
                (experiment, "_FORK_BREAK_EVEN", float("inf"))):
            stack.enter_context(mock.patch.object(module, name, wrap))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        wrote = os.path.exists(out)
    costly = calls["solve"] + calls["block"] + calls["lift"]
    assert code in (0, 1, 2), stderr.getvalue()
    if code == 2:
        assert costly == 0 and not wrote, (calls, stderr.getvalue())
    if code == 1:  # in this grammar a runtime failure can only be the allocation's
        assert calls["refused"] == 1 and costly == 0, (calls, stderr.getvalue())


def test_runtime_errors_are_json(capsys, tmp_path):
    code, out, err = _run(capsys, "pod", "--input", str(tmp_path / "missing.mfp1"),
                          "--out", str(tmp_path))
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["kind"] == "FileNotFoundError"
    code, out, err = _run(capsys, "study", "--budget", "0.5", "--repeats", "1",
                          "--n-hf", "129", "--n-lf", "33",
                          "--out", str(tmp_path / "s"))
    assert code == 1
    assert "error" in json.loads(err.strip().splitlines()[-1])


@pytest.mark.parametrize("alpha", ["pilot", "adaptive"])
def test_study_rejects_a_fitted_weight_on_one_hf_sample(capsys, tmp_path, alpha):
    argv = ["study", "--budget", "3", "--repeats", "2", "--reference-size", "40",
            "--n-hf", "129", "--n-lf", "33", "--report-dims", "4"]
    code, out, err = _run(capsys, *argv, "--alpha", alpha, "--out", str(tmp_path / "s"))
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["kind"] == "usage" and "m_0 >= 2" in payload["error"]
    assert not (tmp_path / "s").exists()
    code, out, err = _run(capsys, *argv, "--alpha", "0.5", "--out", str(tmp_path / "f"))
    assert code == 0, err
    assert json.loads(out)["m0"] == 1


def test_study_allocates_its_budget_once(capsys, monkeypatch, tmp_path):
    import mfpod.cli as cli
    import mfpod.experiment as experiment

    calls = []

    def counted(*args):
        calls.append(args)
        return allocate(*args)

    allocate = experiment.allocate_budget
    monkeypatch.setattr(experiment, "allocate_budget", counted)
    monkeypatch.setattr(cli, "allocate_budget", counted, raising=False)
    code, out, err = _run(capsys, "study", "--budget", "5", "--repeats", "2",
                          "--reference-size", "40", "--n-hf", "129", "--n-lf", "33",
                          "--report-dims", "4", "--out", str(tmp_path / "s"))
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("alpha", ["pilot", "adaptive"])
def test_mfpod_rejects_a_fitted_weight_on_one_hf_column(capsys, tmp_path, alpha):
    from mfpod import write_snapshots

    rng = np.random.default_rng(0)
    hf, lf = tmp_path / "hf.mfp1", tmp_path / "lf.mfp1"
    write_snapshots(hf, rng.standard_normal((10, 1)))
    write_snapshots(lf, rng.standard_normal((10, 6)))
    code, out, err = _run(capsys, "mfpod", "--hf", str(hf), "--lf", str(lf),
                          "--alpha", alpha, "--out", str(tmp_path / "o"))
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["kind"] == "usage" and "m_0 >= 2" in payload["error"]
    code, out, err = _run(capsys, "mfpod", "--hf", str(hf), "--lf", str(lf),
                          "--alpha", "0.5", "--out", str(tmp_path / "f"))
    assert code == 0, err


@pytest.mark.parametrize("kappa", ["2", "0"])
@pytest.mark.parametrize("command", ["pod", "mfpod"])
def test_kappa_outside_the_unit_interval_is_a_usage_error_for_file_commands(capsys, tmp_path,
                                                                           command, kappa):
    from mfpod import write_snapshots

    rng = np.random.default_rng(0)
    hf, lf = tmp_path / "hf.mfp1", tmp_path / "lf.mfp1"
    write_snapshots(hf, rng.standard_normal((10, 3)))
    write_snapshots(lf, rng.standard_normal((10, 6)))
    inputs = ("--input", str(lf)) if command == "pod" else ("--hf", str(hf), "--lf", str(lf))
    code, out, err = _run(capsys, command, *inputs, "--kappa", kappa,
                          "--out", str(tmp_path / "o"))
    assert code == 2, err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["kind"] == "usage" and "kappa" in payload["error"]
    assert not (tmp_path / "o").exists()


def test_mfpod_rejects_an_empty_high_fidelity_file(capsys, tmp_path):
    from mfpod import write_snapshots

    rng = np.random.default_rng(0)
    hf, lf = tmp_path / "hf.mfp1", tmp_path / "lf.mfp1"
    write_snapshots(hf, np.zeros((10, 0)))
    write_snapshots(lf, rng.standard_normal((10, 6)))
    code, out, err = _run(capsys, "mfpod", "--hf", str(hf), "--lf", str(lf), "--alpha", "0.5",
                          "--out", str(tmp_path / "o"))
    assert code == 2, err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["kind"] == "usage" and "high-fidelity" in payload["error"]
    assert not (tmp_path / "o").exists()


def test_pod_rejects_an_empty_snapshot_file(capsys, tmp_path):
    from mfpod import write_snapshots

    empty = tmp_path / "empty.mfp1"
    write_snapshots(empty, np.zeros((10, 0)))
    code, out, err = _run(capsys, "pod", "--input", str(empty), "--out", str(tmp_path / "o"))
    assert code == 2, err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["kind"] == "usage" and "no snapshots" in payload["error"]
    assert not (tmp_path / "o").exists()


def test_mfpod_rejects_inconsistent_files(capsys, tmp_path):
    from mfpod import write_snapshots

    rng = np.random.default_rng(0)
    hf, lf = tmp_path / "hf.mfp1", tmp_path / "lf.mfp1"
    write_snapshots(hf, rng.standard_normal((10, 4)))
    write_snapshots(lf, rng.standard_normal((10, 3)))
    code, out, err = _run(capsys, "mfpod", "--hf", str(hf), "--lf", str(lf),
                          "--out", str(tmp_path / "o"))
    assert code == 2
    assert "surrogate" in json.loads(err.strip().splitlines()[-1])["error"]
