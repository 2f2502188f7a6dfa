"""The benchmark's own test, at tiny shapes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def declared(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cnn-sign", "transfer", "transfer-adam",
                                      "mlp-protocols"])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"] == (result["failed"] == 0)
    # repro transfer's BasicCNN source stays at chance at some seeds, which
    # its check reports (README, "Known failures"); the others must pass
    if workload != "transfer":
        assert result["correct"], proc.stderr
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared(trace)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace == 0:
        assert all(v > 0 for v in values.values())
        return
    for name in ("autodiff.matmul.fwd_calls", "autodiff.cross-entropy.fwd_calls",
                 "autodiff.nodes", "autodiff.peak_tape_bytes", "training.steps",
                 "evalharness.samples_scored", "sign.jacobian_evals"):
        assert values[name] > 0, name
    if workload == "mlp-protocols":
        assert values["autodiff.conv2d.calls"] == 0
        assert values["autodiff.maxpool.fwd_calls"] == 0
        assert values["autodiff.aleatoric-nll.fwd_calls"] > 0
        assert values["autodiff.aleatoric-nll.vjp_calls"] > 0
    else:
        assert values["autodiff.conv2d.calls"] > 0
        assert values["autodiff.conv2d.vjp_input_calls"] > 0
        assert values["autodiff.maxpool.fwd_calls"] > 0
        assert values["autodiff.aleatoric-nll.fwd_calls"] == 0


def test_every_declared_layer_metric_is_produced_without_spans():
    """Per-layer figures are emitted for every op and layer, 0 where
    nothing ran, so a declared name that none produces is an error."""
    sys.path.insert(0, BENCH_DIR)
    import metrics
    import tracing

    view = metrics.PassView(metrics.SpanTable(tracing.Recorder()), [])
    figures = metrics.layer_figures(view, 1.0, 0)
    assert set(declared(1)) <= set(figures)
    for op in metrics.OPS:
        assert f"autodiff.{op}.fwd_calls" in figures


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "transfer", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
