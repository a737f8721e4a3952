"""Command-line front end: flags, dispatch, CSV/JSON emission.

Each subcommand is a `cmd_*` function whose parameters are its settings:
it takes one flag per parameter, typed and defaulted by SETTINGS, and no
other (`qplab <cmd> --help` lists them).  It runs one experiment suite and
writes deterministic artifacts (CSV for tabular data, JSONL for ledgers,
JSON for single structured results) into --out-dir, which defaults to
$QPLAB_OUT or the working directory.
Exit codes: 0 success, 2 hypothesis violation (soft; kam-step and kam-run
print the driver's stop reason on stderr), 1 error, usage errors included.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import contfrac, kam, ldt, spectra, sl2
from .cocycle import (
    amo,
    finite_lyapunov,
    renorm_iterates,
    commutation_residual,
    rotation_number,
)
from .udspace import FourierSeries, Modulus, log_norm_mr, norm_lambda, rotation_series

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2

OUT_ENV = "QPLAB_OUT"

# setting -> (type, default); a subcommand takes --<setting> for each of its parameters
SETTINGS = {
    "alpha": (str, "golden"),
    "depth": (int, 40),
    "lam": (float, 0.5),
    "E": (float, 0.0),
    "rho": (float, 0.25),
    "gamma": (float, 0.1),
    "tau": (float, 1.5),
    "v": (float, 0.1),
    "K": (int, 1000),
    "q": (int, 13),
    "p": (int, 0),
    "levels": (int, 4),
    "steps": (int, 3),
    "eps": (float, 1e-3),
    "modulus": (str, "analytic"),
    "modulus_param": (float, None),
    "grid": (int, 128),
    "n": (int, 1000),
    "out_dir": (str, ""),
}


def _write(out_dir: str, name: str, text: str):
    base = Path(out_dir or os.environ.get(OUT_ENV, "."))
    base.mkdir(parents=True, exist_ok=True)
    path = base / name
    with open(path, "w") as fh:
        fh.write(text)
    print(path)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv(rows: list, header: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _amo_series(lam: float) -> FourierSeries:
    return FourierSeries.cosine(2.0 * lam)


# the parameter of each class when --modulus-param is not given
_MODULUS_PARAM = {"gevrey": 0.7, "power": 3.0}


def _modulus(modulus: str, modulus_param) -> Modulus:
    if modulus_param is None:
        return Modulus(modulus, _MODULUS_PARAM.get(modulus, 0.0))
    if modulus == "analytic":
        raise ValueError("the analytic modulus takes no --modulus-param")
    return Modulus(modulus, modulus_param)


def _fib_convergents(cf, levels: int, q_min: int = 3):
    """(q_i, p_i, i) for the first `levels` indices i >= 1 with q_i >= q_min."""
    order = []
    for i in range(1, cf.depth() + 1):
        if len(order) == levels:
            break
        p, q = cf.convergent(i)
        if q >= q_min:
            order.append((q, p, i))
    return order


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_cf(alpha, depth, out_dir) -> int:
    e = contfrac.expand(alpha, depth)
    _write(out_dir, "cf.json", e.to_json() + "\n")
    return EXIT_OK


def cmd_dioph(alpha, K, v, tau, rho, gamma, out_dir) -> int:
    e = contfrac.expand(alpha, 1)
    freq = contfrac.check_diophantine(e, "frequency", K, v=v, tau=tau)
    rot = contfrac.check_diophantine(e, "rotation", K, rho=rho, gamma=gamma, tau=tau)
    out = {"frequency": freq, "rotation": rot}
    _write(out_dir, "dioph.json", json.dumps(out) + "\n")
    return EXIT_OK if freq["holds"] and rot["holds"] else EXIT_HYPOTHESIS


def cmd_norms(modulus, modulus_param, out_dir) -> int:
    M = _modulus(modulus, modulus_param)
    rng = np.random.default_rng(0)
    rows = []
    for i in range(8):
        K = int(rng.integers(1, 9))
        c = rng.normal(size=2 * K + 1) * np.exp(-np.abs(np.arange(-K, K + 1)))
        f = FourierSeries(c + 0j)
        r = 0.1
        rows.append((i, K, log_norm_mr(f, M, r), norm_lambda(f, M, r)))
    _write(out_dir, "norms.csv", _csv(rows, ["trial", "K", "log_norm_mr", "norm_lambda"]))
    return EXIT_OK


def cmd_lyapunov(alpha, lam, E, n, grid, out_dir) -> int:
    e = contfrac.expand(alpha, 1)
    c = amo(lam, E, e.alpha)
    rows = []
    m = 1
    while m <= n:
        rows.append((m, finite_lyapunov(c, m, grid)))
        m *= 2
    _write(out_dir, "lyapunov.csv", _csv(rows, ["n", "L_n"]))
    return EXIT_OK


def cmd_rotnum(alpha, lam, E, n, out_dir) -> int:
    e = contfrac.expand(alpha, 1)
    c = amo(lam, E, e.alpha)
    out = rotation_number(c, n=n)
    rec = {"rho": out["rho"], "error_bar": out["error_bar"]}
    _write(out_dir, "rotnum.json", json.dumps(rec) + "\n")
    return EXIT_OK


def cmd_renorm(alpha, lam, E, levels, out_dir) -> int:
    e = contfrac.expand(alpha, levels + 2)
    c = amo(lam, E, e.alpha)
    rows = []
    for lvl in range(1, levels + 1):
        it = renorm_iterates(c, e, lvl)
        xs = np.linspace(0.0, 2.0, 7)
        rows.append((lvl, commutation_residual(it, xs)))
    _write(out_dir, "renorm.csv", _csv(rows, ["level", "commutation_residual"]))
    return EXIT_OK


def cmd_cohom(alpha, q, out_dir) -> int:
    e = contfrac.expand(alpha, 1)
    rng = np.random.default_rng(0)
    rows = []
    for i in range(8):
        K = int(rng.integers(2, 13))
        c = rng.normal(size=2 * K + 1) * np.exp(-0.3 * np.abs(np.arange(-K, K + 1)))
        g = FourierSeries((c + np.conj(c[::-1])) / 2.0 + 0j, True)
        sol = kam.solve_cohomological(g, e.alpha, Q=q)
        rows.append((i, K, sol["residual"], sol["divisor_floor"]))
    _write(out_dir, "cohom.csv", _csv(rows, ["trial", "K", "residual", "divisor_floor"]))
    return EXIT_OK


@functools.lru_cache(maxsize=4)
def _deep_bridges(alpha: str):
    e = contfrac.expand(alpha, 25000)
    return e, contfrac.select_bridges(e, 25.0)


def _exp_bandwidth(F: FourierSeries) -> int:
    """Smallest multiple m K of F's bandwidth K, m >= 3, beyond which e^F has mass under 1e-13.

    1e-13 is the default tail guard of `FourierSeries.exp_map`.  F is a 2x2
    series.  With f_k the entrywise l1 norm of its k-th coefficient, which is
    submultiplicative on 2x2 matrices, the k-th coefficient of F^n / n! has
    entrywise l1 norm at most (f^{*n})_k / n!.  So the mass of e^F beyond
    |k| = N is at most that of sum_n f^{*n} / n! there.  The sum stops once
    s^n / n! (s = sum f) is under 1e-15, so n > s, and its remainder, at most
    s^(n+1) / (n+1)! / (1 - s / (n+2)), counts against every N.  The guard,
    which compares the mass with 1e-13 times a total near 2, still decides.
    """
    tail_tol = 1e-13
    f = np.sum(np.abs(F.coeffs), axis=(0, 1))
    s = float(np.sum(f))
    n, term, mass = 0, np.ones(1), np.zeros(1)  # term = f^{*n} / n!, mass = sum of the terms
    while s**n / math.factorial(n) >= tail_tol / 100:
        n += 1
        term = np.convolve(term, f) / n
        mass = np.pad(mass, F.K) + term
    rest = s ** (n + 1) / math.factorial(n + 1) / (1.0 - s / (n + 2))
    Kn, m = n * F.K, 3
    while m * F.K < Kn and (np.sum(mass[:Kn - m * F.K]) + np.sum(mass[Kn + m * F.K + 1:])
                            + rest > tail_tol):
        m += 1
    return m * F.K


def _kam_ledger(alpha, rho, eps, modulus, modulus_param, steps) -> tuple:
    """The driver's ledger and stop reason from R_rho e^F, F a seeded sl(2,R) term of size eps."""
    M = _modulus(modulus, modulus_param)
    e, sel = _deep_bridges(alpha)
    rng = np.random.default_rng(0)
    K0 = 10

    def small_real(amp):
        c = rng.normal(size=2 * K0 + 1) * np.exp(-0.5 * np.abs(np.arange(-K0, K0 + 1))) + 0j
        return FourierSeries(amp * (c + np.conj(c[::-1])) / 2.0, True)

    x, y, z = (small_real(eps) for _ in range(3))
    F = FourierSeries.from_entries(x, y + z, y - z, x * (-1.0))
    R = rotation_series(FourierSeries.constant(rho), out_K=2)
    K_exp = _exp_bandwidth(F)  # 3 K0 at eps = 1e-3
    A0 = R.mat_mul(F.exp_map(out_K=K_exp), out_K=K_exp + 4, tail_tol=None)
    out = kam.almost_reducibility_driver(e.alpha, A0, rho, M, sel, steps=steps)
    return out["ledger"], out["stop_reason"]


def _kam_exit(ledger: list, steps: int, stop_reason: str) -> int:
    """0 only if every level completed; otherwise 2, with the driver's stop reason on stderr."""
    if len(ledger) == steps:
        return EXIT_OK
    print(stop_reason, file=sys.stderr)
    return EXIT_HYPOTHESIS


def cmd_kam_step(alpha, rho, eps, modulus, modulus_param, out_dir) -> int:
    ledger, stop_reason = _kam_ledger(alpha, rho, eps, modulus, modulus_param, 1)
    _write(out_dir, "kam_step.jsonl", kam.ledger_to_jsonl(ledger))
    return _kam_exit(ledger, 1, stop_reason)


def cmd_kam_run(alpha, rho, eps, modulus, modulus_param, steps, out_dir) -> int:
    ledger, stop_reason = _kam_ledger(alpha, rho, eps, modulus, modulus_param, steps)
    _write(out_dir, "kam_run.jsonl", kam.ledger_to_jsonl(ledger))
    return _kam_exit(ledger, steps, stop_reason)


def cmd_spectrum(lam, q, p, out_dir) -> int:
    bs = spectra.band_set(_amo_series(lam), p or _coprime_p(q), q, theta=0.0)
    _write(out_dir, "spectrum.csv", bs.to_csv())
    return EXIT_OK


def cmd_sminus(lam, q, p, out_dir) -> int:
    ss = spectra.s_sets(_amo_series(lam), p or _coprime_p(q), q)
    _write(out_dir, "sminus.csv", ss["S_minus"].to_csv())
    _write(out_dir, "splus.csv", ss["S_plus"].to_csv())
    return EXIT_OK


def cmd_ids(lam, q, p, grid, out_dir) -> int:
    V = _amo_series(lam)
    p = p or _coprime_p(q)
    bands = spectra._moving_bands(V, p, q)
    lo, hi = bands[0][0] - 0.5, bands[-1][1] + 0.5
    rows = []
    for E in np.linspace(lo, hi, grid):
        try:
            rows.append((float(E), spectra.ids(V, p, q, float(E), bands=bands)))
        except spectra.BandIndexAmbiguous:
            continue
    if len(rows) < grid:
        print(f"ids: skipped {grid - len(rows)} of {grid} energies whose band index is ambiguous",
              file=sys.stderr)
    _write(out_dir, "ids.csv", _csv(rows, ["E", "N"]))
    return EXIT_OK


def cmd_chambers(alpha, lam, E, levels, out_dir) -> int:
    e = contfrac.expand(alpha, levels + 4)
    V = _amo_series(lam)
    rows = []
    for q, p, _ in _fib_convergents(e, levels):
        dev = spectra.chambers_deviation(V, p, q, E)
        rows.append((q, dev, 2.0 * lam**q))
    _write(out_dir, "chambers.csv", _csv(rows, ["q", "deviation", "two_lambda_pow_q"]))
    return EXIT_OK


def cmd_fejer(K, p, out_dir) -> int:
    p = p or 1
    # the coefficients are exact integers from p convolutions of length K
    if not (1 <= K <= 1000 and 1 <= p <= 4):
        raise ValueError(f"fejer needs 1 <= K <= 1000 and 1 <= p <= 4, got K={K}, p={p}")
    ker = ldt.FejerKernel(K, p)
    rec = {
        "R": ker.R,
        "p": ker.p,
        "identity_exact": ker.identity_exact(),
        "coefficients": [int(v) for v in ker.c],
    }
    _write(out_dir, "fejer.json", json.dumps(rec) + "\n")
    return EXIT_OK


def cmd_ldt(alpha, E, out_dir) -> int:
    e = contfrac.expand(alpha, 12)
    scales = ldt.LdtScales()
    kappa = scales.kappa
    rows = []
    for q, p, _ in _fib_convergents(e, 3, q_min=13):
        N = int(round(q**1.45))
        r = ldt.ldt_experiment(amo(3.0, E, e.alpha), p, q, N=N, kappa=kappa,
                               grid_mult=128, scales=scales)
        rows.append((q, N, kappa, r["measure"], math.exp(-scales.c_ldt * q**scales.gamma)))
    _write(out_dir, "ldt.csv", _csv(rows, ["q", "N", "kappa", "measure", "bound"]))
    return EXIT_OK


def cmd_avalanche(out_dir) -> int:
    rng = np.random.default_rng(0)
    mu = 40.0
    rows = []
    mats = [np.diag([mu, 1.0 / mu]) for _ in range(8)]
    out = ldt.avalanche_check(mats, mu)
    rows.append(("constant_diag", out["lhs"], out["rhs_unit"], out["hypothesis_ok"]))
    pert = [np.asarray(sl2.rot(rng.normal() * 1e-3)) @ np.diag([mu, 1.0 / mu]) for _ in range(8)]
    out = ldt.avalanche_check(pert, mu)
    rows.append(("jittered", out["lhs"], out["rhs_unit"], out["hypothesis_ok"]))
    bad = mats + [np.eye(2)]
    out = ldt.avalanche_check(bad, mu)
    rows.append(("violation", out["lhs"], out["rhs_unit"], out["hypothesis_ok"]))
    _write(out_dir, "avalanche.csv", _csv(rows, ["case", "lhs", "n_over_mu", "hypothesis_ok"]))
    return EXIT_OK


def cmd_seqs(alpha, depth, levels, out_dir) -> int:
    e = contfrac.expand(alpha, max(depth, 250))
    out = ldt.induction_sequences(e, ldt.LdtScales(), s_max=levels, q0_min=10**5)
    if out["exhausted_at"] is not None:
        print(f"seqs: the expansion to depth {e.depth()} has no convergent for level "
              f"{out['exhausted_at']}; seqs.csv stops at level {out['exhausted_at'] - 1}",
              file=sys.stderr)
    rows = [
        (t["s"], str(t["q_tilde"]), t["log_N"], t["log_m"], t["window_ok"], t["sandwich_ok"])
        for t in out["terms"]
    ]
    _write(out_dir, "seqs.csv", _csv(rows, ["s", "q_tilde", "log_N", "log_m", "window_ok",
                                            "sandwich_ok"]))
    return EXIT_OK


def cmd_last_diff(alpha, lam, levels, out_dir) -> int:
    e = contfrac.expand(alpha, levels + 6)
    sets = [(q, spectra.amo_s_minus_closed_form(lam, q, p))
            for q, p, _ in _fib_convergents(e, levels + 1, q_min=5)]
    rows = []
    for (qa, sa), (qb, sb) in zip(sets, sets[1:]):
        d = spectra.set_distance(sa, sb)
        rows.append((qa, qb, d["symdiff_measure"], d["hausdorff"]))
    _write(out_dir, "last_diff.csv", _csv(rows, ["q_n", "q_next", "symdiff_measure",
                                                 "hausdorff"]))
    return EXIT_OK


def _coprime_p(q: int) -> int:
    for p in range(1, q):
        if math.gcd(p, q) == 1:
            return p
    return 1


COMMANDS = {
    "cf": cmd_cf,
    "dioph": cmd_dioph,
    "norms": cmd_norms,
    "lyapunov": cmd_lyapunov,
    "rotnum": cmd_rotnum,
    "renorm": cmd_renorm,
    "cohom": cmd_cohom,
    "kam-step": cmd_kam_step,
    "kam-run": cmd_kam_run,
    "spectrum": cmd_spectrum,
    "sminus": cmd_sminus,
    "ids": cmd_ids,
    "chambers": cmd_chambers,
    "fejer": cmd_fejer,
    "ldt": cmd_ldt,
    "avalanche": cmd_avalanche,
    "seqs": cmd_seqs,
    "last-diff": cmd_last_diff,
}


class _UsageError(Exception):
    """A malformed command line: an unknown flag or an unparsable value."""


class _Parser(argparse.ArgumentParser):
    # argparse would exit 2, the code of a hypothesis violation
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="qplab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name)
        for key in inspect.signature(fn).parameters:
            typ, default = SETTINGS[key]
            p.add_argument(f"--{key.replace('_', '-')}", type=typ, default=default,
                           help=f"default {default!r}")
    return ap


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return COMMANDS[args.pop("command")](**args)
    except Exception as exc:  # propagated library errors with provenance
        print(f"error [{type(exc).__module__}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
