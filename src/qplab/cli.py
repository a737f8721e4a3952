"""Command-line front end: experiment configuration, dispatch, CSV/JSON
emission.

Every subcommand reads an optional JSON config file plus flag overrides,
runs one experiment suite, and writes deterministic artifacts (CSV for
tabular data, JSONL for ledgers, JSON for single structured results).
Exit codes: 0 success, 2 hypothesis violation (soft), 1 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import contfrac, kam, ldt, spectra, sl2
from .cocycle import (
    QpCocycle,
    amo,
    finite_lyapunov,
    renorm_iterates,
    commutation_residual,
    rotation_cocycle,
    rotation_number,
    schrodinger,
    transfer,
    _transfer_grid,
)
from .udspace import FourierSeries, Modulus, log_norm_mr, norm_lambda, rotation_series

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2

OUT_ENV = "QPLAB_OUT"


@dataclass
class ExperimentConfig:
    """Validated experiment configuration; round-trips through JSON exactly."""

    command: str
    alpha: str = "golden"
    depth: int = 40
    prec: int = 256
    A: float = 25.0
    lam: float = 0.5
    E: float = 0.0
    rho: float = 0.25
    gamma: float = 0.1
    tau: float = 1.5
    v: float = 0.1
    K: int = 1000
    q: int = 13
    p: int = 0
    levels: int = 4
    steps: int = 3
    eps: float = 1e-3
    r0: float = 0.5
    kappa: float = 0.05
    modulus: str = "analytic"
    modulus_param: float = 0.0
    mode: str = "measured"
    seed: int = 0
    grid: int = 128
    n: int = 1000
    out_dir: str = ""
    out: str = ""

    @classmethod
    def from_sources(cls, command: str, config_path, flag_items: dict) -> "ExperimentConfig":
        data = {"command": command}
        if config_path:
            with open(config_path) as fh:
                raw = json.load(fh)
            unknown = set(raw) - set(cls.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown config fields: {sorted(unknown)}")
            data.update(raw)
        for k, v in flag_items.items():
            if v is not None:
                data[k] = v
        data["command"] = command
        return cls(**data)

    def modulus_obj(self) -> Modulus:
        param = self.modulus_param
        if self.modulus == "gevrey" and param == 0.0:
            param = 0.7
        if self.modulus == "power" and param == 0.0:
            param = 3.0
        return Modulus(self.modulus, param)

    def resolve_out(self, default_name: str) -> Path:
        base = Path(self.out_dir or os.environ.get(OUT_ENV, "."))
        base.mkdir(parents=True, exist_ok=True)
        return base / (self.out or default_name)


def _write(path: Path, text: str):
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


def _fib_convergents(cf, levels: int, q_min: int = 3):
    order = [(cf.q[i], cf.p[i], i) for i in range(1, len(cf.q)) if cf.q[i] >= q_min]
    return order[:levels]


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_cf(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, cfg.depth, cfg.prec)
    _write(cfg.resolve_out("cf.json"), e.to_json() + "\n")
    return EXIT_OK


def cmd_dioph(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, cfg.depth, cfg.prec)
    freq = contfrac.check_diophantine(e, "frequency", cfg.K, v=cfg.v, tau=cfg.tau)
    rot = contfrac.check_diophantine(
        e, "rotation", cfg.K, rho=cfg.rho, gamma=cfg.gamma, tau=cfg.tau
    )
    out = {"frequency": freq, "rotation": rot}
    _write(cfg.resolve_out("dioph.json"), json.dumps(out) + "\n")
    return EXIT_OK if freq["holds"] and rot["holds"] else EXIT_HYPOTHESIS


def cmd_norms(cfg: ExperimentConfig) -> int:
    M = cfg.modulus_obj()
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for i in range(8):
        K = int(rng.integers(1, 9))
        c = rng.normal(size=2 * K + 1) * np.exp(-np.abs(np.arange(-K, K + 1)))
        f = FourierSeries(c + 0j)
        r = 0.1
        rows.append((i, K, log_norm_mr(f, M, r), norm_lambda(f, M, r)))
    _write(cfg.resolve_out("norms.csv"), _csv(rows, ["trial", "K", "log_norm_mr", "norm_lambda"]))
    return EXIT_OK


def cmd_lyapunov(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, max(cfg.depth, 2), cfg.prec)
    c = amo(cfg.lam, cfg.E, e.alpha)
    rows = []
    n = 1
    while n <= cfg.n:
        rows.append((n, finite_lyapunov(c, n, cfg.grid)))
        n *= 2
    _write(cfg.resolve_out("lyapunov.csv"), _csv(rows, ["n", "L_n"]))
    return EXIT_OK


def cmd_rotnum(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, max(cfg.depth, 2), cfg.prec)
    c = schrodinger(_amo_series(cfg.lam), cfg.E, e.alpha)
    out = rotation_number(c, n=cfg.n)
    rec = {"rho": out["rho"], "error_bar": out["error_bar"]}
    _write(cfg.resolve_out("rotnum.json"), json.dumps(rec) + "\n")
    return EXIT_OK


def cmd_renorm(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, max(cfg.depth, cfg.levels + 2), cfg.prec)
    c = amo(cfg.lam, cfg.E, e.alpha)
    rows = []
    for lvl in range(1, cfg.levels + 1):
        it = renorm_iterates(c, e, lvl)
        xs = np.linspace(0.0, 2.0, 7)
        rows.append((lvl, commutation_residual(it, xs)))
    _write(cfg.resolve_out("renorm.csv"), _csv(rows, ["level", "commutation_residual"]))
    return EXIT_OK


def cmd_cohom(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, max(cfg.depth, 8), cfg.prec)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for i in range(8):
        K = int(rng.integers(2, 13))
        c = rng.normal(size=2 * K + 1) * np.exp(-0.3 * np.abs(np.arange(-K, K + 1)))
        g = FourierSeries((c + np.conj(c[::-1])) / 2.0 + 0j, True)
        sol = kam.solve_cohomological(g, e.alpha, Q=cfg.q)
        rows.append((i, K, sol["residual"], sol["divisor_floor"]))
    _write(cfg.resolve_out("cohom.csv"), _csv(rows, ["trial", "K", "residual", "divisor_floor"]))
    return EXIT_OK


@functools.lru_cache(maxsize=4)
def _deep_bridges(alpha: str, A: float, prec: int):
    e = contfrac.expand(alpha, 25000, prec)
    return e, contfrac.select_bridges(e, A)


def _driver_setup(cfg: ExperimentConfig):
    e, sel = _deep_bridges(cfg.alpha, cfg.A, cfg.prec)
    M = cfg.modulus_obj()
    rng = np.random.default_rng(cfg.seed)
    K0 = 10

    def small_real(amp):
        c = rng.normal(size=2 * K0 + 1) * np.exp(-0.5 * np.abs(np.arange(-K0, K0 + 1))) + 0j
        return FourierSeries(amp * (c + np.conj(c[::-1])) / 2.0, True)

    x, y, z = (small_real(cfg.eps) for _ in range(3))
    F = FourierSeries.from_entries(x, y + z, y - z, x * (-1.0))
    E = F.exp_map(out_K=3 * K0)
    R = rotation_series(FourierSeries.constant(cfg.rho), out_K=2)
    A0 = R.mat_mul(E, out_K=3 * K0 + 4, tail_tol=None)
    return e, sel, M, A0


def cmd_kam_step(cfg: ExperimentConfig) -> int:
    e, sel, M, A0 = _driver_setup(cfg)
    out = kam.almost_reducibility_driver(
        e.alpha, A0, cfg.rho, M, sel, steps=1, gamma=cfg.gamma, tau=cfg.tau,
        r0=cfg.r0, mode=cfg.mode,
    )
    _write(cfg.resolve_out("kam_step.jsonl"), kam.ledger_to_jsonl(out["ledger"]))
    return EXIT_OK if out["ledger"] else EXIT_HYPOTHESIS


def cmd_kam_run(cfg: ExperimentConfig) -> int:
    e, sel, M, A0 = _driver_setup(cfg)
    out = kam.almost_reducibility_driver(
        e.alpha, A0, cfg.rho, M, sel, steps=cfg.steps, gamma=cfg.gamma, tau=cfg.tau,
        r0=cfg.r0, mode=cfg.mode,
    )
    _write(cfg.resolve_out("kam_run.jsonl"), kam.ledger_to_jsonl(out["ledger"]))
    complete = len(out["ledger"]) == cfg.steps
    return EXIT_OK if complete else EXIT_HYPOTHESIS


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    V = _amo_series(cfg.lam)
    p = cfg.p or _coprime_p(cfg.q)
    bs = spectra.band_set(V, p, cfg.q, theta=0.0)
    _write(cfg.resolve_out("spectrum.csv"), bs.to_csv())
    return EXIT_OK


def cmd_sminus(cfg: ExperimentConfig) -> int:
    V = _amo_series(cfg.lam)
    p = cfg.p or _coprime_p(cfg.q)
    ss = spectra.s_sets(V, p, cfg.q)
    _write(cfg.resolve_out("sminus.csv"), ss["S_minus"].to_csv())
    _write(cfg.resolve_out("splus.csv"), ss["S_plus"].to_csv())
    return EXIT_OK


def cmd_ids(cfg: ExperimentConfig) -> int:
    V = _amo_series(cfg.lam)
    p = cfg.p or _coprime_p(cfg.q)
    bands = spectra._moving_bands(V, p, cfg.q)
    lo, hi = bands[0][0] - 0.5, bands[-1][1] + 0.5
    rows = []
    for E in np.linspace(lo, hi, cfg.grid):
        try:
            rows.append((float(E), spectra.ids(V, p, cfg.q, float(E), bands=bands)))
        except spectra.BandIndexAmbiguous:
            continue
    _write(cfg.resolve_out("ids.csv"), _csv(rows, ["E", "N"]))
    return EXIT_OK


def cmd_chambers(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, max(cfg.depth, cfg.levels + 4), cfg.prec)
    V = _amo_series(cfg.lam)
    rows = []
    for q, p, _ in _fib_convergents(e, cfg.levels):
        dev = spectra.chambers_deviation(V, p, q, cfg.E)
        rows.append((q, dev, 2.0 * cfg.lam**q))
    _write(cfg.resolve_out("chambers.csv"), _csv(rows, ["q", "deviation", "two_lambda_pow_q"]))
    return EXIT_OK


def cmd_fejer(cfg: ExperimentConfig) -> int:
    ker = ldt.FejerKernel(min(cfg.K, 1000), min(max(cfg.p, 1), 4))
    rec = {
        "R": ker.R,
        "p": ker.p,
        "identity_exact": ker.identity_exact(),
        "coefficients": [int(v) for v in ker.c],
    }
    _write(cfg.resolve_out("fejer.json"), json.dumps(rec) + "\n")
    return EXIT_OK


def cmd_ldt(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, 12, cfg.prec)
    scales = ldt.LdtScales(kappa=cfg.kappa)
    rows = []
    for q, p, _ in _fib_convergents(e, 3, q_min=13):
        N = int(round(q**1.45))
        r = ldt.ldt_experiment(amo(3.0, cfg.E, e.alpha), p, q, N=N, kappa=cfg.kappa,
                               grid_mult=128, scales=scales)
        rows.append((q, N, cfg.kappa, r["measure"], math.exp(-scales.c_ldt * q**scales.gamma)))
    _write(cfg.resolve_out("ldt.csv"), _csv(rows, ["q", "N", "kappa", "measure", "bound"]))
    return EXIT_OK


def cmd_avalanche(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
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
    _write(cfg.resolve_out("avalanche.csv"), _csv(rows, ["case", "lhs", "n_over_mu", "hypothesis_ok"]))
    return EXIT_OK


def cmd_seqs(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, max(cfg.depth, 250), cfg.prec)
    scales = ldt.LdtScales(kappa=cfg.kappa)
    out = ldt.induction_sequences(e, scales, s_max=cfg.levels, q0_min=10**5)
    rows = [
        (t["s"], str(t["q_tilde"]), t["log_N"], t["log_m"], t["window_ok"], t["sandwich_ok"])
        for t in out["terms"]
    ]
    _write(
        cfg.resolve_out("seqs.csv"),
        _csv(rows, ["s", "q_tilde", "log_N", "log_m", "window_ok", "sandwich_ok"]),
    )
    return EXIT_OK


def cmd_last_diff(cfg: ExperimentConfig) -> int:
    e = contfrac.expand(cfg.alpha, max(cfg.depth, cfg.levels + 6), cfg.prec)
    conv = _fib_convergents(e, cfg.levels + 1, q_min=5)
    sets = []
    for q, p, _ in conv:
        sets.append((q, spectra.amo_s_minus_closed_form(cfg.lam, q, p)))
    rows = []
    for i in range(len(sets) - 1):
        d = spectra.set_distance(sets[i][1], sets[i + 1][1])
        rows.append((sets[i][0], sets[i + 1][0], d["symdiff_measure"], d["hausdorff"]))
    _write(
        cfg.resolve_out("last_diff.csv"),
        _csv(rows, ["q_n", "q_next", "symdiff_measure", "hausdorff"]),
    )
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

_FLOAT_FLAGS = ["A", "lam", "E", "rho", "gamma", "tau", "v", "eps", "r0", "kappa", "modulus_param"]
_INT_FLAGS = ["depth", "prec", "K", "q", "p", "levels", "steps", "seed", "grid", "n"]
_STR_FLAGS = ["alpha", "modulus", "mode", "out_dir", "out"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qplab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        for f in _FLOAT_FLAGS:
            p.add_argument(f"--{f.replace('_', '-')}", dest=f, type=float, default=None)
        for f in _INT_FLAGS:
            p.add_argument(f"--{f.replace('_', '-')}", dest=f, type=int, default=None)
        for f in _STR_FLAGS:
            p.add_argument(f"--{f.replace('_', '-')}", dest=f, type=str, default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: getattr(args, k) for k in _FLOAT_FLAGS + _INT_FLAGS + _STR_FLAGS}
    try:
        cfg = ExperimentConfig.from_sources(args.command, args.config, flags)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return COMMANDS[args.command](cfg)
    except (kam.HypothesisViolated, ldt.ScalesInvalid) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except Exception as exc:  # propagated library errors with provenance
        print(f"error [{type(exc).__module__}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
