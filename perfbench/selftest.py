"""Tests of the benchmark itself (kept out of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

Tiny runs of every workload check that each metric named in BENCHMARK.json
is emitted with its unit; the tracer tests check that wrappers are installed
at every binding during an op and that every original is back afterwards.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import sqbloch  # noqa: E402
import sqbloch.cli  # noqa: E402
from tracer import OP_SPAN, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_metrics_match_emitted_names():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_STREAMS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOAD_STREAMS))
def test_tiny_run_emits_every_metric(workload, trace):
    report = run.run(workload, seed=0, seconds=0.01, trace=trace, workers=1)
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2 + trace
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_command_line_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "inverse",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert record["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert len(record["outputs_sha256"]) == 64
    probe = record["noisy_probe"]
    assert probe["ops"] == 32
    assert sum(probe["failures"].values()) == len(probe["failed_inputs"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _all_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "sqbloch" or name.startswith("sqbloch.")
        for attr, value in vars(module).items()
    } | {("WignerGrid", "to_csv"): sqbloch.reservoir.WignerGrid.__dict__["to_csv"]}


def _is_wrapper(value) -> bool:
    return getattr(value, "__perfbench_wrapper__", False)


def test_tracer_wraps_every_binding_and_restores_them():
    before = _all_bindings()
    tracer = Tracer(sqbloch)
    t = np.linspace(0.0, 5.0, 201)
    seen = {}
    with tracer.op(0):
        for label, value in {
            "protocols.fit_exp": sqbloch.protocols.fit_exp,
            "estimation.fit_exp": sqbloch.estimation.fit_exp,
            "estimation.fit_least_squares": sqbloch.estimation.fit_least_squares,
            "polariton.eigh": sqbloch.polariton.eigh,
            "protocols.transverse_propagator_xy": sqbloch.protocols.transverse_propagator_xy,
            "cli.main": sqbloch.cli.main,
            "WignerGrid.to_csv": sqbloch.reservoir.WignerGrid.to_csv,
        }.items():
            seen[label] = _is_wrapper(value)
        sqbloch.estimation.fit_exp(t, 0.3 + 0.6 * np.exp(-t / 0.8))
    assert all(seen.values()), seen
    after = _all_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(_is_wrapper(v) for v in after.values())

    layers = tracer.summary()
    assert layers["estimation.fit_exp"]["calls"] == 1
    fit = layers["numerics.fit_least_squares"]
    assert fit["calls"] == 1 and fit["iterations"] >= 1 and fit["model_evals"] > 0
    # Self times partition the op: they sum to the root span's duration.
    total_self = sum(entry["self_s"] for entry in layers.values())
    assert total_self == pytest.approx(tracer.span_end[0] - tracer.span_start[0], rel=1e-9)
    assert layers[OP_SPAN]["calls"] == 1


def test_tracer_restores_bindings_when_the_op_raises():
    before = _all_bindings()
    tracer = Tracer(sqbloch)
    with pytest.raises(ValueError):
        with tracer.op(0):
            sqbloch.estimation.fit_exp([0.0, 1.0], [1.0, 0.5])
    assert all(_all_bindings()[k] is v for k, v in before.items())
    assert tracer.summary()["estimation.fit_exp"]["calls"] == 1
