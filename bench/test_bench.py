"""Checks of the benchmark's own machinery, on small shapes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from mfpod import experiment, make_model_pair, verify  # noqa: E402
from mfpod.models import AdvDiffConfig  # noqa: E402

import tracing  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.x", 1.5, 2.0, 1],
        ["a.y", 3.0, 3.5, 1],
        ["b", 5.0, 9.0, 0],
        ["b.overlap", 4.5, 6.0, 4],  # starts before its parent: clipped to [5, 6]
        ["b.inner", 5.5, 7.0, 4],    # overlaps its sibling: counted once
        ["leaf", 9.5, 9.75, -1],
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 0.5, 0.5, 2.0, 1.5, 1.5, 0.25])
    for (_, start, end, parent), self_s in zip(spans, own):
        assert 0.0 <= self_s <= end - start
        if parent >= 0:
            assert self_s <= spans[parent][2] - spans[parent][1]
    summary = tracing.summarize(spans + [["a", 11.0, 12.0, -1]])
    assert summary["a"] == {"calls": 2, "s": pytest.approx(4.0), "self_s": pytest.approx(3.0)}


def test_hooks_resolve_and_are_restored():
    before = [(o, a, getattr(tracing._resolve(o), a)) for o, a, _, _ in tracing.HOOKS]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for owner, attr, original in before:
            assert getattr(tracing._resolve(owner), attr).__wrapped__ is original
    for owner, attr, original in before:
        assert getattr(tracing._resolve(owner), attr) is original


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    computed = set(tracing.layer_metrics(tracing.Tracer()))
    set_by_workloads = {"experiment.build_reference.alloc_peak_mb",
                        "experiment.build_reference.held_mb", "trace.overhead_frac"}
    assert computed | set_by_workloads == declared


SMALL = AdvDiffConfig(n_hf=257, n_lf=17)


@pytest.mark.parametrize("split,weight_mode", [
    ("even_split", "pilot_alpha"), ("lf_only", "pilot_alpha"), ("even_split", "adaptive"),
])
def test_tracing_leaves_study_reports_unchanged(tmp_path, split, weight_mode):
    config = experiment.StudyConfig(budget=5.0, split=split, weight_mode=weight_mode,
                                    repeats=3, master_seed=11, model=SMALL,
                                    reference_size=300, report_dims=10)
    reference = experiment.build_reference(SMALL, 300, 40)
    plain = experiment.run_study(config, reference)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = experiment.run_study(config, reference)
        experiment.write_study(traced, tmp_path)
    assert json.dumps(plain.to_payload(), sort_keys=True) == json.dumps(
        traced.to_payload(), sort_keys=True)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["experiment.write_study.s"] > 0
    assert metrics["models.sample_parameters.draws"] > 0
    if split == "lf_only":
        assert metrics["pod.pod.calls"] == 3 and metrics["mfpod.mfpod_fixed.calls"] == 0
    else:
        assert metrics["core.orthonormalize.calls"] > 0 and metrics["pod.pod.calls"] == 0


def test_tracing_leaves_verify_outputs_unchanged():
    pair = make_model_pair(AdvDiffConfig(n_hf=65, n_lf=17))

    def run():
        ref = verify.reference_matrix(pair, 400, 3)
        conv = verify.convergence_study(pair, 4, (2, 4), 30, 3, reference=ref)
        eig = verify.eigenvalue_sum_mse(pair, 3, (2, 4), 30, 3, gamma_hat=conv.gamma_hat,
                                        reference=ref)
        return repr((conv, eig))

    plain = run()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run()
    assert plain == traced
    metrics = tracing.layer_metrics(tracer)
    assert metrics["verify.build_operator.calls"] == 2 * 2 * 30
    # The ModelPair lambdas resolve snapshot() in mfpod.models at call time.
    assert metrics["models.snapshot_high.calls"] == 400 + 2 * 30 * (2 + 4)
