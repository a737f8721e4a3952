"""qplab benchmark: one workload per invocation, run in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run times a fixed number of whole passes (PASSES), not a fixed span of
time, so that its counts and medians do not depend on the host's speed;
--seconds is accepted for the benchmark interface and not used.

With --trace 0 the last line of standard output is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
pass_s, op_s.p50, setup_s and peak_rss_mb; with --trace 1 the metrics are the
per-layer ones, taken from a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("spectra-golden", "cocycle-dichotomy", "cli-cold")
# fresh starts per run whose median is setup_s (the timed run is one of them)
SETUP_STARTS = {"spectra-golden": 7, "cocycle-dichotomy": 4, "cli-cold": 5}
# timed passes per run, fixed so that no count or median depends on host speed
PASSES = 2
DEADLINE_S = 170.0
ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(workload: str, seed: int, workdir: Path, deadline: float, *extra) -> dict:
    """Run worker.py in its own process group; the group is killed on any way out."""
    launched = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--launched", repr(launched), "--workdir", str(workdir), *extra]
    proc = subprocess.Popen(cmd, env=ENV, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # also ends any command it left running
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run(workload: str, seed: int, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    workdir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if trace:
            rec = worker(workload, seed, workdir, deadline,
                         "--trace-out", str(OUT / f"trace-{workload}-seed{seed}.npz"))
            metrics = rec["layers"]
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            listed = [m["name"] for m in spec["per_layer"]]
            if sorted(listed) != sorted(metrics):
                raise BenchError(f"traced metrics {sorted(set(metrics) ^ set(listed))} "
                                 "are not both in BENCHMARK.json and in tracer.METRICS")
        else:
            setups = [worker(workload, seed, workdir, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_STARTS[workload] - 1)]
            rec = worker(workload, seed, workdir, deadline, "--passes", str(PASSES))
            setups.append(rec["setup_s"])
            rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            metrics = {
                "pass_s": {"value": statistics.median(rec["pass_s"]), "unit": "s"},
                "op_s.p50": {"value": statistics.median(rec["op_s"]), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in [f"{k}: {v}" for k, v in rec["failures"].items()] + rec["problems"]:
        print(f"{workload}: {line}")
    print(f"{workload}: passes {['%.3f' % t for t in rec['pass_s']]}")
    return {"correct": not rec["problems"], "attempted": rec["attempted"],
            "failed": len(rec["failures"]), "metrics": metrics}


def smoke() -> int:
    """One operation of each workload with its checks, in this process."""
    sys.path.insert(0, str(SRC))
    import workloads

    ok = True
    for name, cls in workloads.WORKLOADS.items():
        workdir = OUT / f"smoke-{os.getpid()}"
        try:
            w = cls(0, workdir)
            label, fn = w.operations()[0]
            results = {label: fn({})}
            problems = w.check(results)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {list(results)} {'ok' if not problems else problems}")
        ok = ok and not problems
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0, help="accepted, not used")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one operation per workload, checked")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so workers are killed
    if not (SRC / "qplab" / "cli.py").is_file():
        print(f"no qplab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = run(args.workload, args.seed, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
