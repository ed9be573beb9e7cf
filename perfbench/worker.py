"""One benchmark process: import sqbloch from source, run one cold op, then
ops in a closed loop until the time is up, and write a JSON report.

Started by ``run.py``; not meant to be run by hand.  With ``--trace 1`` the
ops alternate between untraced and traced, so the two sets of op times come
from the same stretch of time.  With ``--probe`` the worker then runs each
probe input once, untimed, and reports its failures apart from the ops'.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _clear(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--start", type=int, required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--probe", default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import sqbloch
    import sqbloch.cli

    from tracer import Tracer
    from workloads import DIGEST_OPS, EXCEPTION, EXIT2, WORKLOADS

    if Path(sqbloch.__file__).resolve().parent != ROOT / "src" / "sqbloch":
        print(f"sqbloch imported from {sqbloch.__file__}, not from source", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    inputs = json.loads(Path(args.inputs).read_text())
    out_dir = Path(args.out_dir)
    tracer = Tracer(sqbloch) if args.trace else None

    failures: dict[str, int] = {}
    failed_inputs: list[tuple[int, str]] = []
    digests: dict[int, str] = {}
    times = {"untraced": [], "traced": []}

    def attempt(inp: dict, op_id: int, traced: bool) -> tuple[float, str | None, str]:
        _clear(out_dir)
        kind = None
        result = None
        with tracer.op(op_id) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = workload.call(sqbloch, inp, out_dir)
            except SystemExit as exc:
                kind = EXIT2 if exc.code == 2 else EXCEPTION
            except Exception:
                kind = EXCEPTION
            elapsed = time.perf_counter() - start
        digest = f"failed:{kind}"
        if kind is None:
            kind, digest = workload.check(sqbloch, inp, result, out_dir)
        return elapsed, kind, digest

    def one_op(index: int, traced: bool) -> float:
        elapsed, kind, digest = attempt(inputs[index % len(inputs)], index, traced)
        if kind is not None:
            failures[kind] = failures.get(kind, 0) + 1
            failed_inputs.append((index % len(inputs), kind))
        if index < DIGEST_OPS:
            digests[index] = digest
        return elapsed

    index = args.start
    one_op(index, False)
    ready_at = time.monotonic()
    index += 1

    ops = 0
    deadline = time.monotonic() + args.seconds
    # A traced run needs at least one op of each kind.
    while ops < 1 + args.trace or time.monotonic() < deadline:
        traced = bool(args.trace) and ops % 2 == 1
        times["traced" if traced else "untraced"].append(one_op(index, traced))
        index += 1
        ops += 1

    probe = None
    if args.probe:
        probe = {"ops": 0, "failures": {}, "failed_inputs": []}
        for k, inp in enumerate(json.loads(Path(args.probe).read_text())):
            _, kind, _ = attempt(inp, -1, False)
            probe["ops"] += 1
            if kind is not None:
                probe["failures"][kind] = probe["failures"].get(kind, 0) + 1
                probe["failed_inputs"].append((k, kind))

    report = {
        "ready_at": ready_at,
        "ops": ops + 1,
        "times": times,
        "failures": failures,
        "failed_inputs": failed_inputs,
        "digests": {str(k): v for k, v in digests.items()},
        "next": index,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe": probe,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    shutil.rmtree(out_dir, ignore_errors=True)
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
