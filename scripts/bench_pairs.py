"""Alternating parent/change pairs of the benchmark, written as BENCH_<PR>.json.

Usage: python3 scripts/bench_pairs.py PARENT PR [--claim WORKLOAD/METRIC] [--trace W ...]

PARENT is a git revision.  Its committed files (`git archive PARENT`) and the
working tree's files (tracked and untracked, not ignored) are unpacked into
two temporary directories, so each side runs its own perfbench/ from a fresh
copy.  Pair i = 0 .. 9 runs

    python3 perfbench/run.py --workload W --seed 100*PR+1+i --seconds 10 --trace 0

on both sides for every workload of BENCHMARK.json, the parent first in even
pairs and the change first in odd ones, one run at a time.  Each --trace
workload then gets 3 traced pairs (--trace 1, seeds 100*PR+11 .. 100*PR+13),
alternating alike, and each side records the median of every traced metric
over its 3 runs.  The seeds follow from PR, so each record has seeds of its
own.  Quartiles
are numpy's linear 25th and 75th percentiles; change_wins counts the pairs
where the change reads better, ties counting for neither; median_gap is how
much better the change's median is, and relative_gain is median_gap over
the parent's median.  A claim holds when the change wins at least 9 of the
10 pairs, median_gap exceeds the parent's interquartile spread, and
relative_gain exceeds the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
WINS_NEEDED = 9  # of PAIRS, for a claimed gain
TRACE_PAIRS = 3  # traced pairs per --trace workload; one traced run cannot resolve a per-layer change


def unpack_parent(rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    names = subprocess.run(["git", "ls-files", "-z", "-c", "-o", "--exclude-standard"], cwd=ROOT,
                           capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def bench(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    """One perfbench/run.py invocation; its last output line, or the error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "10", "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["metrics"] = {k: v["value"] for k, v in rec["metrics"].items()}
    return rec


def alternate(dirs: dict, workload: str, seeds: list, trace: bool) -> dict:
    """side -> runs, one pair per seed, the parent first in even pairs and the change first in odd ones."""
    runs = {s: [] for s in SIDES}
    for i, seed in enumerate(seeds):
        for s in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[s].append(bench(dirs[s], workload, seed, trace))
            print(f"{workload} seed {seed} {s}{' traced' if trace else ''}: "
                  f"{runs[s][-1].get('metrics', runs[s][-1])}", file=sys.stderr, flush=True)
    return runs


def median_metrics(runs: list) -> dict:
    """Per metric, the median over the runs that report it."""
    names = sorted({k for r in runs for k in r.get("metrics", {})})
    return {k: round(float(np.median([r["metrics"][k] for r in runs if k in r.get("metrics", {})])), 6)
            for k in names}


def quartiles(xs: list) -> dict:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": round(float(med), 6), "q1": round(float(q1), 6), "q3": round(float(q3), 6)}


def summarize(runs: dict, spec: dict) -> dict:
    """Per metric: each side's quartiles, pair wins, median gap and the parent's spread."""
    out = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        vals = {s: [r["metrics"].get(name) if "metrics" in r else None for r in runs[s]] for s in SIDES}
        ok = {s: [v for v in vals[s] if v is not None] for s in SIDES}
        if not ok["parent"] or not ok["change"]:
            continue
        stats = {s: quartiles(ok[s]) for s in SIDES}
        wins = sum(1 for p, c in zip(vals["parent"], vals["change"])
                   if p is not None and c is not None and sign * (p - c) > 0)
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        rel = gap / stats["parent"]["median"]
        out[name] = {
            **stats,
            "change_wins": wins,
            "median_gap": round(gap, 6),
            "parent_iqr": round(iqr, 6),
            "relative_gain": round(rel, 4),
            "bound": m["bound"],
            "gain_rule_met": wins >= WINS_NEEDED and gap > iqr and rel > m["bound"],
            "ratio_change_over_parent": round(stats["change"]["median"] / stats["parent"]["median"], 4),
            "unit": m["unit"],
            "runs": {s: [None if v is None else round(v, 6) for v in vals[s]] for s in SIDES},
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent commit")
    ap.add_argument("pr", type=int, help="N of the BENCH_<N>.json to write; its seeds are 100*N+1 ..")
    ap.add_argument("--claim", default=None, help="WORKLOAD/METRIC the change claims to improve")
    ap.add_argument("--trace", nargs="*", default=[],
                    help=f"workloads to trace in {TRACE_PAIRS} alternating pairs")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [100 * args.pr + 1 + i for i in range(PAIRS)]
    record = {
        "command": "python3 perfbench/run.py --workload W --seed N --seconds 10 --trace 0, "
                   "in fresh copies of the parent and of the change",
        "parent": subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip(),
        "host": {"cores": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {s: Path(tmp) / s for s in SIDES}
        for d in dirs.values():
            d.mkdir()
        unpack_parent(args.parent, dirs["parent"])
        copy_worktree(dirs["change"])
        for w in [entry["name"] for entry in spec["workloads"]]:
            runs = alternate(dirs, w, seeds, trace=False)
            record["workloads"][w] = {
                "pairs": PAIRS,
                "seeds": seeds,
                "order": "alternating; even pairs ran parent first, odd pairs change first",
                "failed_attempted": {s: sorted({f"{r['failed']}/{r['attempted']}" for r in runs[s]
                                                if "metrics" in r}) for s in SIDES},
                "run_errors": {s: [r["error"] for r in runs[s] if "error" in r] for s in SIDES},
                "all_correct": all(r.get("correct", False) for s in SIDES for r in runs[s]),
                "metrics": summarize(runs, spec),
            }
        trace_seeds = [100 * args.pr + 1 + PAIRS + i for i in range(TRACE_PAIRS)]
        for w in args.trace:
            runs = alternate(dirs, w, trace_seeds, trace=True)
            record.setdefault("trace", {})[w] = {
                "pairs": TRACE_PAIRS, "seeds": trace_seeds, "statistic": "median per metric",
                "run_errors": {s: [r["error"] for r in runs[s] if "error" in r] for s in SIDES},
                **{s: median_metrics(runs[s]) for s in SIDES}}
    if args.claim:
        w, m = args.claim.split("/", 1)
        got = record["workloads"][w]["metrics"][m]
        record["claimed"] = {"workload": w, "metric": m,
                             "rule": f"change wins at least {WINS_NEEDED}/{PAIRS} of the pairs, the "
                                     "median gap exceeds the parent's interquartile spread and the "
                                     "relative gain exceeds the metric's bound",
                             "wins": got["change_wins"], "pairs": PAIRS,
                             "median_gap": got["median_gap"], "parent_iqr": got["parent_iqr"],
                             "relative_gain": got["relative_gain"], "bound": got["bound"],
                             "met": got["gain_rule_met"]}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
