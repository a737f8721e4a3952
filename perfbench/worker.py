"""One workload process: set up, then time whole passes over the operation list.

    python3 perfbench/worker.py --workload NAME --seed N --launched T \
        [--setup-only] [--passes P] [--trace-out PATH]

T is the launcher's time.perf_counter() just before it started this process
(a system-wide monotonic clock on Linux), so the set-up time covers
interpreter start, imports, input generation and the workload's own
precomputation.  The last line of standard output is one JSON record.

A timed run makes P whole passes, however long they take, so that every run
attempts the same operations.  A traced run (--trace-out) wraps the layers
before set-up, then makes one untraced and one traced pass, and writes the
spans of the set-up and the traced pass to PATH.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload) -> dict:
    results, op_s, failures = {}, [], {}
    t0 = time.perf_counter()
    for label, fn in workload.operations():
        t = time.perf_counter()
        try:
            results[label] = fn(results)
        except Exception as exc:  # a failed operation is counted, not fatal
            results[label] = None
            failures[label] = f"{type(exc).__name__}: {exc}"
        op_s.append(time.perf_counter() - t)
    pass_s = time.perf_counter() - t0
    return {"pass_s": pass_s, "op_s": op_s, "failures": failures,
            "problems": workload.check(results)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--passes", type=int, default=2)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args()

    trace = None
    if args.trace_out is not None:
        import qplab.cli  # noqa: F401  (load every layer so that all of them get wrapped)

        trace = tracing.Tracer()
        trace.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes, layers = [], None
    if trace is None:
        passes = [run_pass(workload) for _ in range(args.passes)]
    else:
        trace.uninstall()
        passes.append(run_pass(workload))
        trace.install()
        if hasattr(workload, "trace_dir"):
            workload.trace_dir = args.workdir / "child-traces"
            workload.trace_dir.mkdir(parents=True, exist_ok=True)
        passes.append(run_pass(workload))
        trace.uninstall()
        layers = tracing.layer_metrics(write_trace(trace, workload, args.trace_out))
        overhead = passes[1]["pass_s"] - passes[0]["pass_s"]
        layers["trace.overhead.s"] = {"value": overhead, "unit": "s"}

    print(json.dumps({
        "setup_s": setup_s,
        "pass_s": [p["pass_s"] for p in passes],
        "op_s": [t for p in passes for t in p["op_s"]],
        # a run counts operations of the list, not calls: an operation has
        # failed when it raised in any pass
        "attempted": len(passes[0]["op_s"]),
        "failures": {k: v for p in passes for k, v in p["failures"].items()},
        "problems": [m for p in passes for m in p["problems"]],
        "layers": layers,
    }))
    return 0


def write_trace(trace, workload, path: Path) -> dict:
    """Save the spans of this process and of its traced child processes."""
    import numpy as np

    parts = [trace.arrays()]
    child_dir = getattr(workload, "trace_dir", None)
    if child_dir is not None:
        for f in sorted(child_dir.glob("*.npz")):
            with np.load(f) as z:
                parts.append({k: z[k] for k in z.files})
    spans = tracing.merge(parts)
    np.savez_compressed(path, **spans)
    return spans


if __name__ == "__main__":
    sys.exit(main())
