"""sqbloch benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the parent of this directory and sqbloch
is imported from its ``src/``.  Inputs are generated from ``--seed``.  The
run starts several fresh worker processes one after another (never two at a
time); each imports sqbloch, runs one cold op, which ends its set-up, then
runs ops in a closed loop for its share of ``--seconds``.  Op times are pooled
over the workers and ``setup_s`` is the median of their set-up times.

``--trace 0`` prints the gated end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics, per op.  The last
stdout line is the result JSON.  The line before it records the environment,
the failures by kind, a sha256 over the outputs of the first ops (in op
order) and, with ``--trace 0``, the ungated median, throughput and failure
ratio.  "correct" is false if any op's output fails its check or no op
succeeds; errors the program reports are counted in "failed".  On ``inverse``
the last worker also runs a fixed, seeded set of noisy-trace inputs once,
untimed, after its timed ops; their failures are on the record line under
"noisy_probe", not in "failed".  A full report and the spans go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: with the default pool on a 2-core machine, about one
# process in eight stalled for ~1 s on its first master-equation solve.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread variables)

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

WORKERS = 3
# A worker may overrun its share of the run by this much (set-up, the op in
# flight at the deadline and the inverse probe) before it is killed.
WORKER_GRACE_S = 40.0
WORKLOAD_STREAMS = {"sweep": 1, "polariton": 2, "inverse": 3}

# Gated end-to-end metrics.  On a shared 2-vCPU Xeon VM the same op runs in a
# fast or a ~1.45-1.65x slower state that lasts 1 s to minutes, so over a 36 s
# run the median and the mean jump with the share of slow time: across 10
# seeds their IQR/median reached 0.10-0.29.  The p90 catches the slow state in
# nearly every run (IQR/median 0.04-0.18), so it is the gated timing; the
# median, throughput and failure ratio are printed on the record line.
END_TO_END = {
    "op_s.p90": "s",
    "setup_s": "s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}
UNGATED = {"op_s.p50": "s", "ops_per_s": "1/s", "fail_ratio": "ratio"}
# Span name -> fields reported per op.
LAYER_FIELDS = {
    "cli.main": ("calls", "self_s"),
    "cli.load_config": ("self_s",),
    "protocols.detuning_sweep": ("self_s",),
    "protocols.ramsey": ("calls", "self_s"),
    "protocols.run_sequence": ("calls", "self_s"),
    "blochdyn.transverse_propagator_xy": ("calls", "self_s"),
    "blochdyn.frame_rotation": ("calls", "self_s"),
    "reservoir.wigner": ("self_s",),
    "reservoir.WignerGrid.to_csv": ("self_s",),
    "polariton.build_hamiltonian": ("self_s",),
    "polariton.diagonalize_polaritons": ("self_s",),
    "polariton.master_equation_rhs": ("self_s",),
    "polariton.apply_master_equation": ("calls", "self_s"),
    "estimation.fit_exp": ("calls", "self_s"),
    "estimation.fit_damped_sinusoid": ("calls", "self_s"),
    "estimation.estimate_moments": ("self_s",),
    "estimation.reconstruct_wigner": ("self_s",),
    "numerics.eigh": ("calls", "self_s"),
    "numerics.hermitian_defect": ("calls", "self_s"),
    "numerics.integrate_ode": ("calls", "self_s", "rhs_evals"),
    "numerics.fit_least_squares": (
        "calls",
        "self_s",
        "iterations",
        "model_evals",
        "not_converged",
    ),
}
FIELD_UNITS = {"self_s": "s/op"}
PER_LAYER = {
    f"{name}.{field}": FIELD_UNITS.get(field, "count/op")
    for name, fields in LAYER_FIELDS.items()
    for field in fields
}
PER_LAYER["trace.overhead"] = "ratio"


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": None,
        "src_sha256": None,
        "blas": None,
        "cpu": platform.processor() or platform.machine(),
    }
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        env["git_commit"] = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sqbloch").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".conf"):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = h.hexdigest()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def run(workload: str, seed: int, seconds: float, trace: int, workers: int = WORKERS) -> dict:
    """Run one benchmark and return the full report (result under "result")."""
    if not (ROOT / "src" / "sqbloch" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sqbloch sources under {ROOT / 'src'}")
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out.mkdir(exist_ok=True)
    try:
        rng = np.random.default_rng([WORKLOAD_STREAMS[workload], seed])
        wl = WORKLOADS[workload]()
        inputs = wl.generate(rng, work)
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        probe_path = None
        if hasattr(wl, "generate_probe"):
            probe_rng = np.random.default_rng([WORKLOAD_STREAMS[workload], seed, 1])
            probe_path = work / "probe.json"
            probe_path.write_text(json.dumps(wl.generate_probe(probe_rng, work)))
        reports, setups = [], []
        start = 0
        for k in range(workers):
            report_path = work / f"worker{k}.json"
            cmd = [
                sys.executable,
                str(HERE / "worker.py"),
                "--workload", workload,
                "--inputs", str(inputs_path),
                "--out-dir", str(work / f"out{k}"),
                "--report", str(report_path),
                "--seconds", repr(seconds / workers),
                "--trace", str(trace),
                "--start", str(start),
            ]
            if trace:
                # Spans are large (sweep: ~34k per op); keep the last run's only.
                cmd += ["--spans", str(out / f"{workload}-spans-w{k}.csv.gz")]
            if probe_path is not None and k == workers - 1:
                cmd += ["--probe", str(probe_path)]
            t0 = time.monotonic()
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=seconds / workers + WORKER_GRACE_S
            )
            if proc.returncode != 0:
                raise RuntimeError(f"worker {k} exited with code {proc.returncode}")
            rep = json.loads(report_path.read_text())
            setups.append(rep["ready_at"] - t0)
            reports.append(rep)
            start = rep["next"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    untraced = [t for r in reports for t in r["times"]["untraced"]]
    attempted = sum(r["ops"] for r in reports)
    failures: dict[str, int] = {}
    for r in reports:
        for kind, count in r["failures"].items():
            failures[kind] = failures.get(kind, 0) + count
    failed = sum(failures.values())
    digests = {int(k): v for r in reports for k, v in r["digests"].items()}
    outputs = hashlib.sha256(
        "".join(digests[k] for k in sorted(digests)).encode()
    ).hexdigest()

    if trace:
        traced = [t for r in reports for t in r["times"]["traced"]]
        totals: dict[str, dict[str, float]] = {}
        for r in reports:
            for name, entry in r["layers"].items():
                acc = totals.setdefault(name, {})
                for key, value in entry.items():
                    acc[key] = acc.get(key, 0) + value
        n_traced = len(traced)
        metrics = {}
        for name, fields in LAYER_FIELDS.items():
            for field in fields:
                value = totals.get(name, {}).get(field, 0) / n_traced
                metrics[f"{name}.{field}"] = value
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
        units = PER_LAYER
    else:
        metrics = {
            "op_s.p90": float(np.percentile(untraced, 90)),
            "setup_s": statistics.median(setups),
            "success_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": max(r["maxrss_kb"] for r in reports) / 1024.0,
            "op_s.p50": statistics.median(untraced),
            "ops_per_s": len(untraced) / sum(untraced),
            "fail_ratio": failed / attempted,
        }
        units = END_TO_END
    result = {
        "correct": failures.get("check", 0) == 0 and failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workers": workers,
        "samples_untraced": len(untraced),
        "failures_by_kind": failures,
        "failed_inputs": sorted({tuple(f) for r in reports for f in r["failed_inputs"]}),
        "noisy_probe": next((r["probe"] for r in reports if r["probe"]), None),
        "outputs_sha256": outputs,
        "setup_s_per_worker": setups,
        "op_s_untraced": untraced,
        "environment": environment(),
        "result": result,
    }
    if trace:
        report["op_s_traced"] = traced
        report["layers"] = totals
    else:
        report["ungated_metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in UNGATED.items()}
    (out / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = {k: v for k, v in report.items() if k not in ("result", "op_s_untraced", "op_s_traced", "layers")}
    print(json.dumps(record))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
