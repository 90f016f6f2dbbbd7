import json
import os

import numpy as np
import pytest

from mfpod import (
    Basis,
    Metric,
    SnapshotSet,
    mass_matrix,
    mfpod_adaptive,
    mfpod_fixed,
    optimal_alpha,
    read_snapshots,
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
