"""Paired per-layer timing of a parent revision against the working tree, in one process.

Usage: python3 scripts/kernel_pairs.py PARENT PR

PARENT is a git revision.  Its `src/qplab` (from `git archive PARENT`) is
loaded as a second package, `qplab_parent`, beside the working tree's
`src/qplab`, so both sides run in this process on the same fixed inputs.
Each of PAIRS pairs times every call of `calls` in REPEATS back-to-back
spans on each side, alternating sides call by call: the parent first in
even pairs and the change first in odd ones, the order flipping at every
repeat.  The ratio of a pair is the median, over its repeats, of the
change's span over the parent's adjacent one.  A shared host drifts in
speed and slows single runs; the two spans of a repeat see the same speed,
and the median drops the slowed repeats.  On identical code this holds the
spread of the pair ratios to 1.5-3%, where one run per side spreads by 10%.
A call shorter than MIN_SECONDS on the parent is timed over as many
back-to-back runs as reach it, the same number on both sides.  Per call the
record gives the median pair ratio, its quartiles (numpy's linear 25th and
75th percentiles) and their spread, the pairs the change wins (ratio below
1) and each side's median span.  It goes under "kernel_pairs" in BENCH_<PR>.json, beside the
end-to-end rows that scripts/bench_pairs.py writes there; run that first,
as it writes the file anew.  Controls are calls whose code the change is
not meant to touch: on them the median ratio reads the noise of the pairing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import CocycleDichotomy, SpectraGolden, golden_convergents  # noqa: E402

SIDES = ("parent", "change")
PAIRS = 21
REPEATS = 21  # timed spans per side and pair
MIN_SECONDS = 0.05  # the shortest timed span, so that timer and collector noise stay small beside it
MODULES = ("cocycle", "contfrac", "kam", "ldt", "spectra", "udspace")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def load(src: Path, name: str) -> SimpleNamespace:
    """The modules of the package in `src` (a qplab tree), imported under the package name `name`."""
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def ud_potential(FourierSeries):
    """Seeded real series of degree 40, |Vhat_k| ~ e^{-|k|^0.5}, l1 norm 1."""
    rng = np.random.default_rng(0)
    k = np.arange(-40, 41)
    c = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size)) * np.exp(-np.abs(k) ** 0.5)
    c = (c + np.conj(c[::-1])) / 2.0
    return FourierSeries(c / np.sum(np.abs(c)), True)


def homotopy_input(lab: SimpleNamespace):
    """A seeded su(1,1) series of norm 1e-5 and its arguments to kam.homotopy_conjugate."""
    FS, kam = lab.udspace.FourierSeries, lab.kam
    rng = np.random.default_rng(31)
    t = rng.normal(size=21) + 0j
    g = kam.Su11Series(FS((t + np.conj(t[::-1])) / 2.0, True),
                       FS(rng.normal(size=21) + 1j * rng.normal(size=21), False))
    M, ln_r = lab.udspace.Modulus("analytic"), math.log(0.05)
    return g.scale(1e-5 / math.exp(g.log_norm(M, ln_r))), M, ln_r


def calls(lab: SimpleNamespace) -> dict:
    """name -> (touched by the change, zero-argument call on the inputs built here).

    The first three are the cocycle-dichotomy operations that read cocycle
    fibers, on that workload's inputs at golden alpha; then the Chambers
    ladders of spectra-golden, the K = 40 potential's finite_lyapunov and
    rotation_number, the renormalization iterates of almost Mathieu at
    lam = 0.5 and levels 1-8 with their commutation residuals (one iterate
    of each level is an inverse product, n < 0), and two controls.
    """
    co, FS, W = lab.cocycle, lab.udspace.FourierSeries, CocycleDichotomy
    gaps = [co.schrodinger(FS.cosine(1.0), E, GOLDEN) for E in W.gap_energies]
    lyap = [co.amo(3.0, E, GOLDEN) for E in W.lyap_energies]
    ladders = [(FS.cosine(2.0 * lam), golden_convergents(q_max)) for lam, q_max in SpectraGolden.chambers_ladders]
    ud = co.schrodinger(ud_potential(FS), 0.5, GOLDEN)
    g, M, ln_r = homotopy_input(lab)
    cf, renorm_xs = lab.contfrac.expand("golden", 10), np.linspace(0.0, 2.0, 9)
    return {
        "rotation_number gap energies": (True, lambda: [co.rotation_number(c, n=W.rot_n) for c in gaps]),
        "finite_lyapunov energies": (True, lambda: [co.finite_lyapunov(c, 4000, grid=128) for c in lyap]),
        "ldt_experiment": (True, lambda: [lab.ldt.ldt_experiment(
            co.amo(3.0, 0.0, GOLDEN), a, q, N=int(round(q**1.45)), kappa=0.05, grid_mult=128)
            for q, a in W.ldt_qs]),
        "chambers ladders": (True, lambda: [lab.spectra.chambers_deviation(V, p, q, 0.0)
                                            for V, conv in ladders for p, q in conv]),
        "finite_lyapunov K=40": (True, lambda: co.finite_lyapunov(ud, 2000, grid=128)),
        "rotation_number K=40": (True, lambda: co.rotation_number(ud, n=100_000)),
        "renorm_iterates levels 1-8": (True, lambda: [co.commutation_residual(co.renorm_iterates(
            co.amo(0.5, 0.0, GOLDEN), cf, n), renorm_xs) for n in range(1, 9)]),
        "homotopy_conjugate": (False, lambda: lab.kam.homotopy_conjugate(0.25, g, GOLDEN, 1e6, M, ln_r)),
        "expand + select_bridges": (False, lambda: lab.contfrac.select_bridges(
            lab.contfrac.expand("golden", 25000), 25.0)),
    }


def timed(f, runs: int = 1) -> float:
    """Seconds per run of f over `runs` back-to-back runs."""
    gc.collect()
    t = time.perf_counter()
    for _ in range(runs):
        f()
    return (time.perf_counter() - t) / runs


def alternate(sides: dict, pairs: int) -> dict:
    """name -> {"ratio": per pair, "parent"/"change": the side's median span per pair, in seconds per run}.

    The parent runs first in even pairs and the change in odd ones, and the
    order flips at every repeat.  A first run of each call on each side is
    untimed, so that no pair pays a cold start; the parent's gives the
    number of runs per timed span.
    """
    runs = {}
    for name in sides["parent"]:
        timed(sides["change"][name][1])
        runs[name] = max(1, math.ceil(MIN_SECONDS / timed(sides["parent"][name][1])))
    out = {name: {"ratio": [], **{s: [] for s in SIDES}} for name in runs}
    for i in range(pairs):
        for name, rec in out.items():
            spans = {s: [] for s in SIDES}
            for j in range(REPEATS):
                for s in (SIDES if (i + j) % 2 == 0 else SIDES[::-1]):
                    spans[s].append(timed(sides[s][name][1], runs[name]))
            rec["ratio"].append(float(np.median(np.array(spans["change"]) / np.array(spans["parent"]))))
            for s in SIDES:
                rec[s].append(float(np.median(spans[s])))
        print(f"pair {i + 1}/{pairs}", file=sys.stderr, flush=True)
    return out


def summarize(pairs: dict, touched: dict) -> dict:
    """Per call: the median, quartiles and spread of the pair ratios, the change's wins, each side's median."""
    out = {}
    for name, t in pairs.items():
        ratios = np.array(t["ratio"])
        q1, med, q3 = np.percentile(ratios, [25, 50, 75])
        out[name] = {
            "touched": touched[name],
            "pairs": int(ratios.size),
            "median_ratio": round(float(med), 4),
            "q1": round(float(q1), 4),
            "q3": round(float(q3), 4),
            "iqr": round(float(q3 - q1), 4),
            "change_wins": int(np.sum(ratios < 1.0)),
            "median_s": {s: round(float(np.median(t[s])), 6) for s in SIDES},
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent commit")
    ap.add_argument("pr", type=int, help="N of the BENCH_<N>.json to add the record to")
    args = ap.parse_args()

    sha = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="kernel-pairs-") as tmp:
        data = subprocess.run(["git", "archive", sha, "src/qplab"], cwd=ROOT, capture_output=True,
                              check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(tmp, filter="data")
        packages = {"parent": load(Path(tmp) / "src" / "qplab", "qplab_parent"),
                    "change": load(ROOT / "src" / "qplab", "qplab")}
        sides = {s: calls(packages[s]) for s in SIDES}
        times = alternate(sides, PAIRS)
    record = {
        "command": f"python3 scripts/kernel_pairs.py {args.parent} {args.pr}",
        "parent": sha,
        "pairs": PAIRS,
        "order": f"alternating call by call, {REPEATS} spans per side and pair, the order flipping at "
                 "every span; even pairs ran the parent first, odd pairs the change",
        "ratio": "per pair, the median over its repeats of change span / adjacent parent span; "
                 "change_wins counts pair ratios below 1",
        "calls": summarize(times, {name: v[0] for name, v in sides["change"].items()}),
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench["kernel_pairs"] = record
    out.write_text(json.dumps(bench, indent=1) + "\n")
    for name, r in record["calls"].items():
        print(f"{name:30s} {'touched' if r['touched'] else 'control':8s} median ratio {r['median_ratio']:.3f} "
              f"IQR {r['iqr']:.3f} wins {r['change_wins']}/{r['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
