"""The three workloads: their inputs, their operations and their checks.

A workload is built once per process (its set-up), then `operations()` gives
the fixed list of (label, callable) that one pass runs, and `check(results)`
returns a list of problems found in one pass's results; a check whose
operations are missing from `results` is skipped.  Each callable gets the
results of the pass so far.  A callable that raises is a failed operation;
its label maps to None in `results`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def golden_convergents(q_max: int) -> list:
    """(p, q) with p/q the Fibonacci convergents of the golden mean, 3 <= q <= q_max."""
    out, p, q = [], 1, 2
    while q <= q_max:
        if q >= 3:
            out.append((p, q))
        p, q = q, p + q
    return out


class SpectraGolden:
    """Almost Mathieu V = 2 lam cos 2 pi theta at the golden convergents p/q."""

    name = "spectra-golden"
    lam = 0.5
    band_qs = (5, 8, 13, 21)
    s_set_qs = (5, 8)
    closed_form_qs = (5, 8, 13)
    chambers_ladders = ((0.5, 21), (0.9, 144))

    def __init__(self, seed: int, workdir: Path):
        from qplab import spectra
        from qplab.udspace import FourierSeries

        self.spectra = spectra
        self.V = FourierSeries.cosine(2.0 * self.lam)
        self.p_of = {q: p for p, q in golden_convergents(144)}
        self.ladders = [(lam, FourierSeries.cosine(2.0 * lam), golden_convergents(q_max))
                        for lam, q_max in self.chambers_ladders]

    def operations(self) -> list:
        sp, V, p_of = self.spectra, self.V, self.p_of
        ops = [(f"band_edges q={q}", lambda r, q=q: sp.band_edges(V, p_of[q], q, 0.0)["bands"])
               for q in self.band_qs]
        ops += [(f"s_sets q={q}", lambda r, q=q: sp.s_sets(V, p_of[q], q)) for q in self.s_set_qs]
        ops += [(f"s_minus_closed_form q={q}",
                 lambda r, q=q: sp.amo_s_minus_closed_form(self.lam, q, p_of[q]))
                for q in self.closed_form_qs]
        ops.append(("set_distance chain", self._distance_chain))
        ops += [(f"chambers lam={lam}", lambda r, lam=lam, W=W, conv=conv:
                 [(q, sp.chambers_deviation(W, p, q, 0.0)) for p, q in conv])
                for lam, W, conv in self.ladders]
        return ops

    def _distance_chain(self, results):
        sets = [results[f"s_minus_closed_form q={q}"] for q in self.closed_form_qs]
        return [self.spectra.set_distance(a, b) for a, b in zip(sets, sets[1:])]

    def check(self, results: dict) -> list:
        bad = []
        for q in self.band_qs:
            bands = results.get(f"band_edges q={q}")
            if bands is not None:
                bad += checks.band_edge_problems(self.lam, self.p_of[q], q, bands)
        for lam, _, conv in self.ladders:
            ladder = results.get(f"chambers lam={lam}")
            if ladder is None:
                continue
            for q, dev in ladder:
                if abs(dev / (2.0 * lam**q) - 1.0) > 1e-6:
                    bad.append(f"chambers lam={lam} q={q}: {dev!r} vs 2 lam^q = {2 * lam**q!r}")
        for q in self.closed_form_qs:
            closed = results.get(f"s_minus_closed_form q={q}")
            bands = results.get(f"band_edges q={q}")
            if closed is not None and bands is not None and not checks.contained(
                    closed.intervals, bands, 1e-8):
                bad.append(f"q={q}: closed-form S_- not in sigma(theta=0)")
        for q in self.s_set_qs:
            ss, closed = results.get(f"s_sets q={q}"), results.get(f"s_minus_closed_form q={q}")
            if ss is None:
                continue
            s_minus, s_plus = ss["S_minus"].intervals, ss["S_plus"].intervals
            if closed is not None and q <= 13:
                d = checks.same_sets(s_minus, closed.intervals)
                if d is None or d > 1e-6:
                    bad.append(f"q={q}: grid and closed-form S_- differ by {d}")
            bands = results.get(f"band_edges q={q}")
            if bands is not None and not (checks.contained(s_minus, bands, 1e-8)
                                          and checks.contained(bands, s_plus, 1e-8)):
                bad.append(f"q={q}: grid S_- in sigma(theta=0) in S_+ fails")
        chain = results.get("set_distance chain")
        if chain is not None:
            sets = [results[f"s_minus_closed_form q={q}"].intervals for q in self.closed_form_qs]
            for (a, b), d in zip(zip(sets, sets[1:]), chain):
                own = checks.symdiff_measure(a, b)
                if abs(d["symdiff_measure"] - own) > 1e-9:
                    bad.append(f"symdiff {d['symdiff_measure']!r} vs independent {own!r}")
        return bad


class CocycleDichotomy:
    """Both sides of the dichotomy at golden alpha: KAM reducibility and L > 0."""

    name = "cocycle-dichotomy"
    rhos = (0.25, 0.1)
    moduli = (("analytic", 0.0), ("gevrey", 0.7), ("power", 3.0))
    rot_n = 20_000
    gap_energies = (-2.4, -1.6, -0.8, 0.8, 1.6, 2.4)
    lyap_energies = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
    ldt_qs = ((13, 8), (21, 13), (34, 21))

    def __init__(self, seed: int, workdir: Path):
        from qplab import cocycle, contfrac, kam, ldt
        from qplab.udspace import FourierSeries, Modulus

        self.cocycle, self.kam, self.ldt, self.Modulus = cocycle, kam, ldt, Modulus
        cf = contfrac.expand("golden", 25000)
        self.sel = contfrac.select_bridges(cf, 25.0)
        self.alpha = cf.alpha
        self.A0 = self._initial_cocycles(seed)
        self.V = FourierSeries.cosine(1.0)  # lam = 0.5

    def _initial_cocycles(self, seed: int) -> dict:
        """A0 = R_rho e^F per rho, with F a seeded sl(2,R) perturbation of size 1e-3."""
        from qplab.udspace import FourierSeries, MatSeries, rotation_series

        rng = np.random.default_rng(seed)
        K0 = 10

        def small_real(amp):
            c = rng.normal(size=2 * K0 + 1) * np.exp(-0.5 * np.abs(np.arange(-K0, K0 + 1))) + 0j
            return FourierSeries(amp * (c + np.conj(c[::-1])) / 2.0, True)

        out = {}
        for rho in self.rhos:
            x, y, z = (small_real(1e-3) for _ in range(3))
            F = MatSeries.from_entries(x, y + z, y - z, x * (-1.0))
            R = rotation_series(FourierSeries.constant(rho), out_K=2)
            out[rho] = R.mat_mul(F.exp_map(out_K=3 * K0), out_K=3 * K0 + 4, tail_tol=None)
        return out

    def kam_runs(self) -> dict:
        """label -> (rho, modulus kind, modulus parameter, K_work)."""
        runs = {f"kam {kind} rho={rho} K=48": (rho, kind, param, 48)
                for rho in self.rhos for kind, param in self.moduli}
        runs["kam analytic rho=0.25 K=96"] = (0.25, "analytic", 0.0, 96)
        return runs

    def _driver(self, rho, kind, param, K_work):
        return self.kam.almost_reducibility_driver(
            self.alpha, self.A0[rho], rho, self.Modulus(kind, param), self.sel, steps=3,
            K_work=K_work)

    def operations(self) -> list:
        co = self.cocycle
        ops = [(label, lambda r, a=args: self._driver(*a))
               for label, args in self.kam_runs().items()]
        for rho in self.rhos:
            label = f"kam analytic rho={rho} K=48"
            ops.append((f"rotation_number before rho={rho}", lambda r, rho=rho: co.rotation_number(
                co.QpCocycle.from_series(self.alpha, self.A0[rho]), n=self.rot_n)))
            ops.append((f"rotation_number after rho={rho}", lambda r, label=label:
                        co.rotation_number(co.QpCocycle.from_series(
                            self.alpha, r[label]["state"].cocycle_series()), n=self.rot_n)))
        # each energy sweep is one operation, so that the median operation falls
        # inside the cluster of similar KAM runs rather than on the edge between
        # the ~0.1 s single-energy calls and the rest
        ops.append(("rotation_number gap energies", lambda r: {E: co.rotation_number(
            co.schrodinger(self.V, E, self.alpha), n=self.rot_n) for E in self.gap_energies}))
        ops.append(("finite_lyapunov energies", lambda r: {E: co.finite_lyapunov(
            co.amo(3.0, E, self.alpha), 4000, grid=128) for E in self.lyap_energies}))
        ops.append(("ldt_experiment", lambda r: [self.ldt.ldt_experiment(
            co.amo(3.0, 0.0, self.alpha), a, q, N=int(round(q**1.45)), kappa=0.05,
            grid_mult=128)["measure"] for q, a in self.ldt_qs]))
        return ops

    def check(self, results: dict) -> list:
        bad = []
        for label, (rho, *_) in self.kam_runs().items():
            out = results.get(label)
            if out is None:
                continue
            if len(out["ledger"]) != 3:
                bad.append(f"{label}: {out['stop_reason']}")
                continue
            worst = max(e["residual"] for e in out["ledger"])
            own = checks.conjugation_residual(out["state"], self.A0[rho].coeffs)
            if worst > 1e-8 or own > 1e-8:
                bad.append(f"{label}: conjugation residual {worst:.2e} (own grid {own:.2e})")
        for rho in self.rhos:
            r0 = results.get(f"rotation_number before rho={rho}")
            r1 = results.get(f"rotation_number after rho={rho}")
            if r0 is None or r1 is None:
                continue
            drift = checks.half_circle_dist(r0["rho"], r1["rho"])
            if drift > r0["error_bar"] + r1["error_bar"] + 1e-9:
                bad.append(f"rho={rho}: rotation-number drift {drift:.2e} beyond error bars")
        sweep = results.get("rotation_number gap energies") or {}
        N = {E: 1.0 - 2.0 * r["rho"] for E, r in sweep.items()}
        err = {E: 2.0 * r["error_bar"] for E, r in sweep.items()}
        a = self.alpha
        for E, label in ((0.8, a), (-0.8, -a), (2.4, 0.0), (-2.4, 0.0)):
            if E in N:
                d = checks.circle_dist(N[E], label)
                if d > 3.0 * err[E] + 1e-6:
                    bad.append(f"gap label at E={E}: N={N[E]!r} off by {d:.2e}")
        if 1.6 in N and -1.6 in N:
            s = abs(N[1.6] + N[-1.6] - 1.0)
            if s > 3.0 * (err[1.6] + err[-1.6]) + 1e-6:
                bad.append(f"N(-1.6) + N(1.6) - 1 = {s:.2e}")
        lyap = results.get("finite_lyapunov energies") or {}
        for E, L in lyap.items():
            if L < math.log(3.0) - 1e-3:
                bad.append(f"L_n({E}) = {L!r} below Herman's bound log 3")
        if lyap and abs(lyap[0.0] - math.log(3.0)) > 0.05:
            bad.append(f"L_n(0) = {lyap[0.0]!r} not within 0.05 of log 3")
        ms = results.get("ldt_experiment")
        if ms is not None and not (1.0 >= ms[0] > ms[1] > ms[2] >= 0.0):
            bad.append(f"ldt deviation measures {ms} not decreasing in q")
        return bad


# The acceptance suite's determinism argv, fixed here so that the workload
# does not move when the tests change.
CLI_COMMANDS = [
    ["cf", "--alpha", "golden", "--depth", "10"],
    ["dioph", "--alpha", "golden", "--K", "50", "--v", "0.2", "--tau", "1.5",
     "--rho", "0.25", "--gamma", "0.05"],
    ["norms"],
    ["lyapunov", "--n", "128", "--lam", "1.5"],
    ["rotnum", "--n", "10000", "--lam", "0.2", "--E", "2.8"],
    ["renorm", "--levels", "2", "--lam", "0.5"],
    ["cohom", "--q", "13"],
    ["kam-step", "--eps", "1e-3"],
    ["kam-run", "--steps", "2", "--eps", "1e-3"],
    ["spectrum", "--q", "3", "--lam", "0.5"],
    ["sminus", "--q", "3", "--lam", "0.5"],
    ["ids", "--q", "3", "--lam", "0.5", "--grid", "16"],
    ["chambers", "--lam", "0.5", "--levels", "4"],
    ["fejer", "--K", "16", "--p", "2"],
    ["ldt"],
    ["avalanche"],
    ["seqs", "--levels", "3"],
    ["last-diff", "--lam", "0.5", "--levels", "3"],
]


class CliCold:
    """Every determinism argv as its own `python -m qplab.cli` process."""

    name = "cli-cold"

    def __init__(self, seed: int, workdir: Path):
        from qplab import cli

        parser = cli.build_parser()
        for argv in CLI_COMMANDS:
            parser.parse_args(argv)
        self.workdir = workdir
        self.trace_dir = None  # set by a traced run: children then record spans here
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.first = None
        self.passes = 0

    def operations(self) -> list:
        self.passes += 1
        base = self.workdir / f"pass{self.passes}"
        return [(argv[0], lambda r, argv=argv: self._run(argv, base / argv[0]))
                for argv in CLI_COMMANDS]

    def _run(self, argv, out: Path):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "qplab.cli"]
        else:
            spans = self.trace_dir / f"{argv[0]}.npz"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(spans),
                   repr(time.perf_counter())]
        proc = subprocess.run(cmd + argv + ["--out-dir", str(out)], env=self.env, cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def check(self, results: dict) -> list:
        bad = []
        if self.first is None:
            self.first = results
        else:
            for name, files in results.items():
                if files is not None and self.first.get(name) not in (None, files):
                    bad.append(f"{name}: artifacts differ between passes")
        shutil.rmtree(self.workdir / f"pass{self.passes}", ignore_errors=True)
        for name, files in results.items():
            if files is not None:
                bad += [f"{name}: {msg}" for msg in self._artifact_problems(name, files)]
        return bad

    @staticmethod
    def _artifact_problems(name: str, files: dict) -> list:
        def rows(fn):
            lines = files[fn].decode().strip().splitlines()
            return [[float(x) for x in ln.split(",")] for ln in lines[1:]]

        if name == "cf":
            d = json.loads(files["cf.json"])
            a = d["a"]
            # with p_{-1} = 1 and q_{-1} = 0 prepended, s[n + 1] is the n-th term
            ok = d["p"][0] == a[0] and d["q"][0] == 1 and all(
                s[n + 1] == a[n] * s[n] + s[n - 1]
                for s in ([1] + d["p"], [0] + d["q"]) for n in range(1, len(a)))
            return [] if ok else ["convergents break the recurrence"]
        if name == "chambers":
            return [f"q={q:g}: {dev!r} vs 2 lam^q" for q, dev, _ in rows("chambers.csv")
                    if abs(dev / (2 * 0.5**q) - 1.0) > 1e-6]
        if name == "spectrum":
            # touching bands merge in the artifact, so only the edges are checked
            edges = [e for r in rows("spectrum.csv") for e in r]
            dev = float(np.max(np.abs(np.abs(checks.amo_trace(0.5, 1, 3, edges)) - 2.0)))
            return [] if dev <= 1e-8 else [f"max ||t(edge)| - 2| = {dev:.2e}"]
        if name == "ids":
            N = [n for _, n in rows("ids.csv")]
            ok = all(0.0 <= n <= 1.0 for n in N) and all(b >= a for a, b in zip(N, N[1:]))
            return [] if ok else ["IDS not non-decreasing within [0, 1]"]
        if name in ("kam-step", "kam-run"):
            fn = name.replace("-", "_") + ".jsonl"
            ledger = [json.loads(ln) for ln in files[fn].decode().splitlines()]
            return [f"level {e['level']} residual {e['residual']:.2e}" for e in ledger
                    if e["residual"] > 1e-8]
        if name == "rotnum":
            d = json.loads(files["rotnum.json"])
            return [] if checks.half_circle_dist(d["rho"], 0.0) <= d["error_bar"] else [
                f"rho={d['rho']!r} is not 0 on the half-circle within {d['error_bar']:.1e}"]
        return []


WORKLOADS = {w.name: w for w in (SpectraGolden, CocycleDichotomy, CliCold)}
