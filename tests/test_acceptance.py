"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
each test also enforces its stated tolerances and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from qplab import contfrac, kam, ldt, spectra
from qplab.cli import main as cli_main
from qplab.cocycle import (
    QpCocycle,
    amo,
    cocycle_property_residual,
    finite_lyapunov,
    rho_dist,
    rotation_cocycle,
    rotation_number,
)
from qplab.udspace import (
    FourierSeries,
    MatSeries,
    Modulus,
    condition_a_check,
    lambda_many,
    lambda_of,
    log_norm_mr,
    norm_lambda,
    norm_mr,
    rotation_series,
    t1_of,
    tail_bound_c0,
    tail_bound_mr,
)

GOLDEN = (math.sqrt(5) - 1) / 2
GOLDEN_CONVERGENTS = {3: 2, 5: 3, 8: 5, 13: 8, 21: 13, 34: 21}


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def random_real(rng, K, decay=0.5, amp=1.0):
    c = rng.normal(size=2 * K + 1) * np.exp(-decay * np.abs(np.arange(-K, K + 1))) + 0j
    return FourierSeries(amp * (c + np.conj(c[::-1])) / 2.0, True)


def test_c01_chambers_exact():
    t0 = time.perf_counter()
    worst_amp, worst_tail = 0.0, 0.0
    for lam in (0.3, 0.5, 0.9):
        V = FourierSeries.cosine(2 * lam)
        for q, p in ((3, 2), (5, 3), (8, 5), (13, 8)):
            for E in (0.0, 1.0):
                dev = spectra.chambers_deviation(V, p, q, E)
                worst_amp = max(worst_amp, abs(dev - 2.0 * lam**q))
                coeffs = spectra.discriminant_fourier(V, p, q, E)["coeffs"]
                tail = max(abs(v) for k, v in coeffs.items() if abs(k) >= 2)
                worst_tail = max(worst_tail, tail)
    dt = time.perf_counter() - t0
    ok = worst_amp <= 1e-8 and worst_tail <= 1e-10 and dt < 5.0
    report(
        "c01 chambers-amplitude-exact",
        ok,
        f"amp_err={worst_amp:.2e} tail={worst_tail:.2e} time={dt:.2f}s",
    )


def test_c02_chambers_decay_trend():
    t0 = time.perf_counter()
    lam = 0.5
    V = FourierSeries.cosine(2 * lam)
    qs, devs = [], []
    for q, p in GOLDEN_CONVERGENTS.items():
        devs.append(spectra.chambers_deviation(V, p, q, 0.0))
        qs.append(q)
    slope = np.polyfit(qs, np.log(devs), 1)[0]
    dt = time.perf_counter() - t0
    ok = abs(slope - math.log(lam)) <= 0.05 * abs(math.log(lam)) and dt < 10.0
    report("c02 chambers-decay-slope", ok, f"slope={slope:.5f} ln(lam)={math.log(lam):.5f} time={dt:.2f}s")


def _random_alpha(rng, bits=300):
    import mpmath as mp

    mant = int.from_bytes(rng.bytes(bits // 8), "big") | 1
    with mp.workprec(bits + 64):
        return mp.mpf(mant) / mp.mpf(2) ** (8 * (bits // 8) + 1)


def test_c03_continued_fractions():
    e = contfrac.expand("golden", 10)
    fib_ok = e.q[:8] == [1, 1, 2, 3, 5, 8, 13, 21]
    rng = np.random.default_rng(7)

    sandwich_ok = True
    for _ in range(20):
        exp = contfrac.expand(_random_alpha(rng), 25, prec=400)
        inv = exp.check_invariants(exhaustive_q_cap=0)
        if not (inv["recurrence"] and inv["sandwich"] and inv["beta_identity"]):
            sandwich_ok = False
    bridge_ok = True
    for _ in range(100):
        exp = contfrac.expand(_random_alpha(rng), 25, prec=400)
        try:
            sel = contfrac.select_bridges(exp, 25.0)
        except contfrac.SelectionFailed:
            bridge_ok = False
            break
        if not sel.all_ok():
            bridge_ok = False
            break
    ok = fib_ok and sandwich_ok and bridge_ok
    report(
        "c03 continued-fractions",
        ok,
        f"fibonacci={fib_ok} sandwich20={sandwich_ok} bridges100={bridge_ok}",
    )


def test_c04_ud_calculus():
    rng = np.random.default_rng(11)
    moduli = [Modulus("analytic"), Modulus("gevrey", 0.7), Modulus("power", 3.0)]
    banach_ok = cauchy_ok = True
    for M in moduli:
        for _ in range(100):
            f = random_real(rng, int(rng.integers(1, 9)), decay=1.0)
            g = random_real(rng, int(rng.integers(1, 9)), decay=1.0)
            r = 0.08
            if log_norm_mr(f.mul(g), M, r) > log_norm_mr(f, M, r) + log_norm_mr(g, M, r) + 1e-9:
                banach_ok = False
            h = random_real(rng, int(rng.integers(1, 12)), decay=1.0)
            if log_norm_mr(h.derive(), M, 0.05) > math.log(M.C_M / 0.1) + log_norm_mr(
                h, M, 0.1
            ) + 1e-9:
                cauchy_ok = False
    tails_ok = True
    for M, r in ((moduli[0], 0.1), (moduli[0], 0.04), (moduli[1], 0.05), (moduli[2], 0.08)):
        T1 = t1_of(M)
        for bump in (16, 64):
            K = int(T1 / r) + bump
            ks = np.arange(-2 * K, 2 * K + 1)
            f = FourierSeries(np.exp(-lambda_many(M, np.abs(2 * np.pi * ks) * r)) + 0j)
            if not (tail_bound_c0(f, M, r, K)["ok"] and tail_bound_mr(f, M, r, K)["ok"]):
                tails_ok = False
    cond_ok = all(
        all(condition_a_check(M)[k] for k in ("I", "II", "III")) for M in moduli
    )
    lam6, _ = lambda_of(moduli[2], 1e6)
    ratio = lam6 / math.log(1e6) ** 3
    power_ok = 0.9 <= ratio <= 1.1
    ok = banach_ok and cauchy_ok and tails_ok and cond_ok and power_ok
    report(
        "c04 ultradifferentiable-calculus",
        ok,
        f"banach={banach_ok} cauchy={cauchy_ok} tails={tails_ok} condA={cond_ok} "
        f"power_ratio={ratio:.4f}",
    )


def test_c05_cocycle_layer():
    t0 = time.perf_counter()
    diag = QpCocycle(GOLDEN, FourierSeries.constant(np.diag([2.0, 0.5])))
    e1 = abs(finite_lyapunov(diag, 50) - math.log(2))
    e2 = abs(finite_lyapunov(rotation_cocycle(GOLDEN, 0.37), 100))
    e3 = max(
        rho_dist(rotation_number(rotation_cocycle(GOLDEN, rho), n=4000)["rho"], rho)
        for rho in (0.1, 0.25, 0.4)
    )
    e4 = cocycle_property_residual(amo(3.0, 0.0, GOLDEN), 0.123, 500, 500)
    L = finite_lyapunov(amo(3.0, 0.0, GOLDEN), 10_000, grid=128)
    e5 = abs(L - math.log(3.0))
    dt = time.perf_counter() - t0
    ok = e1 <= 1e-12 and e2 <= 1e-12 and e3 <= 1e-10 and e4 <= 1e-9 and e5 <= 0.05 and dt < 30.0
    report(
        "c05 cocycle-layer",
        ok,
        f"diag={e1:.1e} rot={e2:.1e} rotnum={e3:.1e} cocycle={e4:.1e} amo={e5:.3f} time={dt:.1f}s",
    )


def test_c06_cohomological_solver():
    rng = np.random.default_rng(23)
    alphas = [contfrac.expand("golden", 30), contfrac.expand("sqrt2m1", 30)]
    for _ in range(4):
        alphas.append(contfrac.expand(_random_alpha(rng), 30, prec=400))
    ok = True
    worst_res = 0.0
    count = 0
    while count < 50:
        exp = alphas[count % len(alphas)]
        qs = [q for q in exp.q if 8 <= q <= 60]
        if not qs:
            count += 1
            continue
        Q = int(qs[int(rng.integers(0, len(qs)))])
        g = random_real(rng, int(rng.integers(4, Q)), decay=0.4)
        sol = kam.solve_cohomological(g, exp.alpha, Q=Q)
        if sol["divisor_floor"] <= 1e-10:
            count += 1
            continue
        worst_res = max(worst_res, sol["residual"])
        if sol["residual"] > 1e-12 or not kam.coefficient_bound_ok(g, sol["v"], Q):
            ok = False
        count += 1
    report("c06 cohomological-solver", ok, f"worst_residual={worst_res:.2e} (50 runs)")


def test_c07_homotopy_conjugation():
    rng = np.random.default_rng(31)
    MA = Modulus("analytic")
    ln_r = math.log(0.05)
    ok = True
    worst = {"iters": 0, "res": 0.0, "leak": 0.0}
    for _ in range(50):
        K = int(rng.integers(4, 12))
        t = rng.normal(size=2 * K + 1) + 0j
        t = (t + np.conj(t[::-1])) / 2.0
        v = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
        g = kam.Su11Series(FourierSeries(t, True), FourierSeries(v, False))
        target = math.log(1e-5) - float(rng.uniform(0, 4))
        g = g.scale(math.exp(target - g.log_norm(MA, ln_r)))
        out = kam.homotopy_conjugate(0.25, g, GOLDEN, 1e6, MA, ln_r)
        lng = g.log_norm(MA, ln_r)
        worst["iters"] = max(worst["iters"], out["iterations"])
        worst["res"] = max(worst["res"], out["residual"])
        worst["leak"] = max(worst["leak"], out["nre_leak"])
        if (
            out["iterations"] > 20
            or out["Y"].log_norm(MA, ln_r) > lng / 2.0
            or out["g_re"].log_norm(MA, ln_r) > math.log(2.0) + lng
            or out["nre_leak"] > 1e-10
            or out["residual"] > 1e-9
        ):
            ok = False
    report(
        "c07 homotopy-conjugation",
        ok,
        f"max_iters={worst['iters']} max_residual={worst['res']:.1e} max_leak={worst['leak']:.1e}",
    )


def test_c08_kam_driver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    MA = Modulus("analytic")
    cf = contfrac.expand("golden", 25000)
    sel = contfrac.select_bridges(cf, 25.0)
    K0 = 10
    x, y, z = (random_real(rng, K0, amp=1e-3) for _ in range(3))
    F = MatSeries.from_entries(x, y + z, y - z, x * (-1.0))
    A0 = rotation_series(FourierSeries.constant(0.25), out_K=2).mat_mul(
        F.exp_map(out_K=3 * K0), out_K=3 * K0 + 4, tail_tol=None
    )
    out = kam.almost_reducibility_driver(GOLDEN, A0, 0.25, MA, sel, steps=3)
    eps = [e["log_eps_measured"] for e in out["ledger"]]
    monotone = len(eps) == 3 and eps[0] > eps[1] > eps[2]
    residual_ok = all(e["residual"] <= 1e-8 for e in out["ledger"])
    r0 = rotation_number(QpCocycle.from_series(GOLDEN, A0), n=120_000)
    r1 = rotation_number(QpCocycle.from_series(GOLDEN, out["state"].cocycle_series()), n=120_000)
    drift = rho_dist(r0["rho"], r1["rho"])
    drift_ok = drift <= r0["error_bar"] + r1["error_bar"] + 1e-9
    dt = time.perf_counter() - t0
    ok = monotone and residual_ok and drift_ok and dt < 60.0
    report(
        "c08 kam-driver-measured",
        ok,
        f"log_eps={['%.1f' % v for v in eps]} residual_ok={residual_ok} "
        f"drift={drift:.2e} time={dt:.1f}s",
    )


def test_c09_spectra():
    V0 = FourierSeries.zero(1)
    edge_ok = True
    count_ok = True
    for q, p in ((1, 0), (2, 1), (3, 1), (4, 1), (5, 2)):
        ss = spectra.s_sets(V0, p, q)
        for name in ("S_minus", "S_plus"):
            s = ss[name]
            if s.count() != 1:
                edge_ok = False
                continue
            a, b = s.intervals[0]
            if abs(a + 2.0) > 1e-9 or abs(b - 2.0) > 1e-9:
                edge_ok = False
        if len(spectra.band_edges(V0, p, q, 0.3)["bands"]) > q:
            count_ok = False
    lam = 0.5
    V = FourierSeries.cosine(2 * lam)
    ids_ok = (
        spectra.ids(V0, 0, 1, -3.0) == 0.0
        and spectra.ids(V0, 0, 1, 3.0) == 1.0
    )
    bands = spectra._moving_bands(V, 3, 5)
    for j in range(4):
        if bands[j][1] < bands[j + 1][0]:
            mid = (bands[j][1] + bands[j + 1][0]) / 2
            if abs(spectra.ids(V, 3, 5, mid, bands=bands) - (j + 1) / 5) > 1e-12:
                ids_ok = False
    haus_ok = True
    worst_h = 0.0
    for q, p in ((3, 2), (5, 3), (8, 5)):
        sm = spectra.s_sets(V, p, q)["S_minus"]
        closed = spectra.amo_s_minus_closed_form(lam, q, p)
        h = spectra.set_distance(sm, closed)["hausdorff"]
        worst_h = max(worst_h, h)
        if h > 1e-6:
            haus_ok = False
    ok = edge_ok and count_ok and ids_ok and haus_ok
    report(
        "c09 spectra",
        ok,
        f"free_edges={edge_ok} band_count={count_ok} ids={ids_ok} s_minus_hausdorff={worst_h:.1e}",
    )


def test_c10_last_conjecture_trend():
    t0 = time.perf_counter()
    lam = 0.5
    sets = {}
    for q, p in GOLDEN_CONVERGENTS.items():
        if q >= 5:
            sets[q] = spectra.amo_s_minus_closed_form(lam, q, p)
    qs = sorted(sets)
    diffs = []
    for i in range(len(qs) - 1):
        d = spectra.set_distance(sets[qs[i]], sets[qs[i + 1]])
        diffs.append(d["symdiff_measure"])
    dt = time.perf_counter() - t0
    monotone = all(diffs[i + 1] <= diffs[i] + 1e-12 for i in range(len(diffs) - 1))
    ok = monotone and dt < 120.0
    report(
        "c10 last-conjecture-trend",
        ok,
        f"symdiff={['%.5f' % v for v in diffs]} time={dt:.1f}s",
    )


def test_c11_ldt_suite():
    rng = np.random.default_rng(53)
    fejer_ok = all(
        ldt.FejerKernel(R, p).identity_exact()
        for R, p in ((2, 1), (37, 2), (256, 3), (1000, 4), (613, 4))
    )
    ts = rng.uniform(0, 1, 10_000)
    envelope_ok = all(ldt.FejerKernel(R, p).envelope_ok(ts) for R, p in ((10, 1), (100, 2), (1000, 4)))
    mu = 50.0
    av = ldt.avalanche_check([np.diag([mu, 1 / mu])] * 9, mu)
    av_ok = av["lhs"] <= 1e-9 and av["hypothesis_ok"]
    av_bad = ldt.avalanche_check([np.diag([mu, 1 / mu])] * 5 + [np.eye(2)], mu)
    av_ok = av_ok and not av_bad["hypothesis_ok"]
    ks = np.arange(-48, 49)
    dec = np.exp(-0.15 * np.abs(2 * np.pi * ks) ** 0.7)
    c = (rng.normal(size=97) + 0j) * dec
    x = FourierSeries(0.2 * (c + np.conj(c[::-1])) / 2.0, True)
    A = MatSeries.from_entries(x, x * 0.5, x * 0.5, x * (-1.0)).exp_map(out_K=96, tail_tol=None)
    trunc_ok = all(
        ldt.gevrey_truncate(A, N, nu=0.7, rho=0.1, delta=0.6)["ok"] for N in (4, 8, 16)
    )
    ms = []
    for q, a in ((13, 8), (21, 13), (34, 21)):
        N = int(round(q**1.45))
        ms.append(
            ldt.ldt_experiment(amo(3.0, 0.0, GOLDEN), a, q, N=N, kappa=0.05, grid_mult=128)[
                "measure"
            ]
        )
    ldt_ok = ms[0] > ms[1] > ms[2]
    cf = contfrac.expand("golden", 250)
    seq = ldt.induction_sequences(cf, ldt.LdtScales(), s_max=4, q0_min=10**5)
    seq_ok = len(seq["terms"]) >= 3 and all(
        t["window_ok"] and t["divides"] and (t["sandwich_ok"] is not False)
        for t in seq["terms"]
    )
    ok = fejer_ok and envelope_ok and av_ok and trunc_ok and ldt_ok and seq_ok
    report(
        "c11 ldt-suite",
        ok,
        f"fejer={fejer_ok} envelope={envelope_ok} avalanche={av_ok} trunc={trunc_ok} "
        f"ldt_decay={['%.3f' % m for m in ms]} seqs={seq_ok}",
    )


DETERMINISM_COMMANDS = [
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


def test_c12_cli_determinism(tmp_path):
    bad = []
    for argv in DETERMINISM_COMMANDS:
        name = argv[0]
        d1 = tmp_path / f"{name}-1"
        d2 = tmp_path / f"{name}-2"
        rc1 = cli_main(argv + ["--out-dir", str(d1)])
        rc2 = cli_main(argv + ["--out-dir", str(d2)])
        if rc1 != rc2 or rc1 not in (0, 2):
            bad.append(f"{name}: exit {rc1}/{rc2}")
            continue
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        if files1 != files2 or not files1:
            bad.append(f"{name}: file sets differ")
            continue
        for fn in files1:
            if (d1 / fn).read_bytes() != (d2 / fn).read_bytes():
                bad.append(f"{name}: {fn} differs")
    report("c12 cli-determinism", not bad, f"commands={len(DETERMINISM_COMMANDS)} mismatches={bad}")
