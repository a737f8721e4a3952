"""Large-deviation toolkit: Fejer kernels, Gevrey truncation of cocycles,
deviation-set experiments, the avalanche principle check, periodic log-norm
bounds, and the induction-sequence generator.

Existential constants are never asserted: experiments report measured
values, envelopes, or pass/fail against caller-supplied scale constants.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sl2
from .contfrac import CfExpansion
from .cocycle import QpCocycle, _transfer_grid, finite_lyapunov, schrodinger
from .sl2 import safe_log_int
from .udspace import FourierSeries


class ScalesInvalid(Exception):
    pass


class CfExhausted(Exception):
    """The expansion is too shallow for the next induction scale."""


# ---------------------------------------------------------------------------
# Fejer kernels
# ---------------------------------------------------------------------------


@dataclass
class FejerKernel:
    """p-th power of the order-R Cesaro kernel.

    Coefficients c(j), j = 0..p(R-1), are exact integers obtained by
    convolving the all-ones vector with itself p times; their sum is R^p.
    """

    R: int
    p: int
    c: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.R < 1 or self.p < 1:
            raise ValueError("need R >= 1 and p >= 1")
        ones = np.ones(self.R, dtype=object)
        acc = np.array([1], dtype=object)
        for _ in range(self.p):
            acc = np.convolve(acc, ones)
        self.c = acc

    def weight_sum(self) -> int:
        return int(np.sum(self.c))

    def identity_exact(self) -> bool:
        return self.weight_sum() == self.R**self.p

    def eval(self, t) -> np.ndarray:
        """K_R^p(t) = ((1/R) sum_j e^{2 pi i j t})^p, stable at integer t."""
        t = np.asarray(t, dtype=float)
        num = np.sin(np.pi * self.R * t)
        den = self.R * np.sin(np.pi * t)
        near = np.abs(np.sin(np.pi * t)) < 1e-12
        with np.errstate(invalid="ignore", divide="ignore"):
            base = np.where(near, 1.0, num / np.where(near, 1.0, den))
        phase = np.exp(1j * np.pi * (self.R - 1) * t)
        return (base * phase) ** self.p

    def envelope_ok(self, ts: np.ndarray) -> bool:
        """|K_R^p(t)| <= min{1, (R ||t||)^{-p}} <= 2/(1 + R^p ||t||^p)."""
        vals = np.abs(self.eval(ts))
        dist = np.minimum(np.mod(ts, 1.0), 1.0 - np.mod(ts, 1.0))
        with np.errstate(divide="ignore"):
            cap = np.minimum(1.0, (self.R * dist) ** (-self.p))
        loose = 2.0 / (1.0 + (self.R * dist) ** self.p)
        return bool(np.all(vals <= cap * (1 + 1e-9)) and np.all(cap <= loose * (1 + 1e-9)))


# ---------------------------------------------------------------------------
# parameter bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class LdtScales:
    """The coupled exponents of the deviation estimates.

    Given nu in (1/2, 1), delta in (1/nu - 1, 1), sigma in (1, min(2, 1/delta))
    and p in (delta sigma/(sigma-1), 1/(sigma-1)), the derived quantities are
    b = delta/(1/nu - 1) > 1, gamma = 1 + p(1 - sigma) in (0,1) and
    sigma_1 = (p/delta)(sigma - 1) > sigma.  All inequalities are enforced.
    """

    nu: float = 0.8
    delta: float = 0.3
    sigma: float = 1.25
    p: int = 2
    kappa: float = 0.05
    c_ldt: float = 0.5
    C1: float = 1.0
    C2: float = 1e9
    b: float = field(init=False)
    gamma: float = field(init=False)
    sigma1: float = field(init=False)

    def __post_init__(self):
        if not 0.5 < self.nu < 1:
            raise ScalesInvalid("nu must lie in (1/2, 1)")
        inv = 1.0 / self.nu - 1.0
        if not inv < self.delta < 1.0:
            raise ScalesInvalid("delta must lie in (1/nu - 1, 1)")
        self.b = self.delta / inv
        if not self.b > 1.0:
            raise ScalesInvalid("derived b must exceed 1")
        if not 1.0 < self.sigma < min(2.0, 1.0 / self.delta):
            raise ScalesInvalid("sigma must lie in (1, min(2, 1/delta))")
        lo = self.delta * self.sigma / (self.sigma - 1.0)
        hi = 1.0 / (self.sigma - 1.0)
        if not lo < self.p < hi:
            raise ScalesInvalid(f"p must lie in ({lo:.3f}, {hi:.3f})")
        self.gamma = 1.0 + self.p * (1.0 - self.sigma)
        self.sigma1 = (self.p / self.delta) * (self.sigma - 1.0)
        if not 0.0 < self.gamma < 1.0:
            raise ScalesInvalid("derived gamma outside (0, 1)")
        if not self.sigma1 > self.sigma:
            raise ScalesInvalid("derived sigma_1 must exceed sigma")


# ---------------------------------------------------------------------------
# deviation-set experiments
# ---------------------------------------------------------------------------


def ldt_experiment(
    c: QpCocycle, a: int, q: int, N: int, kappa: float, grid_mult: int = 32,
    scales: Optional[LdtScales] = None,
) -> dict:
    """Grid fraction of {theta: |ln||A_N(theta)||/N - L_N| > kappa} at alpha = a/q.

    The window C1 q^sigma < N < C2 q^sigma1 is checked (warn-only, the
    constants are existential).
    """
    rat = QpCocycle(a / q, c.series)
    G = grid_mult * q
    th = np.arange(G) / G
    mats, log_scale = _transfer_grid(rat, th, N)
    ln_norms = (np.log(sl2.op_norm(mats)) + log_scale) / N
    LN = float(np.mean(ln_norms))
    measure = float(np.mean(np.abs(ln_norms - LN) > kappa))
    window_ok = None
    if scales is not None:
        window_ok = scales.C1 * q**scales.sigma < N < scales.C2 * q**scales.sigma1
        if not window_ok:
            warnings.warn("N outside the (C1 q^sigma, C2 q^sigma1) window", stacklevel=2)
    return {"q": q, "N": N, "L_N": LN, "measure": measure, "window_ok": window_ok}


# ---------------------------------------------------------------------------
# Gevrey truncation
# ---------------------------------------------------------------------------


def gevrey_truncate(A: FourierSeries, N: int, nu: float, rho: float, delta: float,
                    norm_bound: Optional[float] = None) -> dict:
    """Truncate a Gevrey cocycle at N-tilde = N^(b/nu) and certify the error.

    Checks the coefficient decay |Ahat(k)| <= C e^{-rho |2 pi k|^nu} first,
    with C either supplied (`norm_bound`, falsifiable) or the weighted
    coefficient norm itself.  The truncation error bound is the certified
    tail sum; the analytic strip half-width of the truncation is
    rho_N = rho/(4 pi) Ntilde^(nu-1).
    """
    if not 0.5 < nu < 1:
        raise ValueError("nu must lie in (1/2, 1)")
    b = delta / (1.0 / nu - 1.0)
    if not b > 1.0:
        raise ValueError("delta too small: the truncation exponent b must exceed 1")
    Ntilde = int(math.floor(N ** (b / nu)))
    ks = A.ks()
    mags = np.max(np.abs(A.coeffs), axis=(0, 1))
    weights = np.exp(rho * np.abs(2.0 * np.pi * ks) ** nu)
    norm_nu_rho = float(np.sum(mags * weights)) if norm_bound is None else float(norm_bound)
    cert = mags <= norm_nu_rho * np.exp(-rho * np.abs(2.0 * np.pi * ks) ** nu) * (1 + 1e-12)
    if not np.all(cert):
        raise ValueError("coefficient decay certificate failed")
    A_tr = A.truncate(min(Ntilde, A.K)) if Ntilde < A.K else A
    inside = np.abs(ks) <= Ntilde
    measured = float(np.sum(mags[~inside])) * 2.0  # entrywise max -> crude matrix bound
    tail_ks = np.arange(Ntilde + 1, max(4 * Ntilde, A.K + 1) + 1)
    bound = 2.0 * norm_nu_rho * float(
        np.sum(np.exp(-rho * np.abs(2.0 * np.pi * tail_ks) ** nu))
    ) * 2.0
    rho_N = rho / (4.0 * math.pi) * Ntilde ** (nu - 1.0)
    return {
        "A_trunc": A_tr,
        "N_tilde": Ntilde,
        "rho_N": rho_N,
        "measured_error": measured,
        "error_bound": bound,
        "ok": measured <= bound * (1 + 1e-9),
        "log_c": rho * (2.0 * math.pi) ** nu,  # measured decay constant in e^{-c N^b}
    }


def strip_log_norm_bound(A_tr: FourierSeries, rho_N: float, N: int, alpha: float) -> dict:
    """|u_N| = |ln ||A_N(. + i rho_N)|| / N| on the strip boundary vs max(ln 2, C1).

    The boundary is sampled at 64 points per side.

    C1 is the log of the coefficient sum weighted by e^{2 pi |k| rho_N};
    finite for the truncated (trig-polynomial) cocycle.
    """
    ks = A_tr.ks()
    C1 = math.log(
        float(np.sum(np.max(np.abs(A_tr.coeffs), axis=(0, 1)) * np.exp(2.0 * np.pi * np.abs(ks) * rho_N)))
    )
    th = np.arange(64) / 64
    worst = 0.0
    for sgn in (1.0, -1.0):
        # A(theta + i sgn rho_N) is the series with coefficients Ahat(k) e^{-2 pi k sgn rho_N}
        B = FourierSeries(A_tr.coeffs * np.exp(-2.0 * np.pi * sgn * rho_N * ks))
        mats, log_scale = _transfer_grid(QpCocycle.from_series(alpha, B), th, N)
        u = (log_scale + np.log(sl2.frob(mats))) / N
        worst = max(worst, float(np.max(np.abs(u))))
    return {"sup_u": worst, "bound": max(math.log(2.0), C1), "C1": C1,
            "ok": worst <= max(math.log(2.0), C1) + 1e-9}


def lyapunov_truncation_gap(c_full: QpCocycle, A_tr: FourierSeries, alpha: float, N: int,
                            log_c: float, b: float) -> dict:
    """|L_N(alpha, A) - L_N(alpha, A-tilde)| against e^{-(c/2) N^b}."""
    full = QpCocycle(alpha, c_full.series)
    trunc = QpCocycle.from_series(alpha, A_tr)
    L1 = finite_lyapunov(full, N)
    L2 = finite_lyapunov(trunc, N)
    gap = abs(L1 - L2)
    log_bound = -(log_c / 2.0) * N**b
    return {"gap": gap, "log_bound": log_bound,
            "ok": gap == 0.0 or math.log(gap) <= log_bound + 1e-9}


# ---------------------------------------------------------------------------
# avalanche principle
# ---------------------------------------------------------------------------


def avalanche_check(mats: list, mu: float) -> dict:
    """Near-additivity of log norms for a chain of SL(2,R) matrices.

    lhs = |ln||prod A_j|| + sum_{j=2}^{n-1} ln||A_j|| - sum_{j=1}^{n-1} ln||A_{j+1} A_j|||.
    Hypotheses (min norm >= mu > n; pairwise cancellation < ln(mu)/2) are
    evaluated and reported, never assumed; the caller judges the constant
    against n/mu.
    """
    n = len(mats)
    if n < 3:
        raise ValueError("need at least 3 matrices")
    arr = np.asarray(mats, dtype=float)
    norms = sl2.op_norm(arr)
    ln_norms = np.log(norms)
    pair_ln = np.empty(n - 1)
    for j in range(n - 1):
        pair_ln[j] = math.log(float(sl2.op_norm(arr[j + 1] @ arr[j])))
    acc = np.eye(2)
    log_scale = 0.0
    for j in range(n):
        acc = arr[j] @ acc
        s = float(np.max(np.abs(acc)))
        acc /= s
        log_scale += math.log(s)
    ln_prod = math.log(float(sl2.op_norm(acc))) + log_scale
    lhs = abs(ln_prod + float(np.sum(ln_norms[1 : n - 1])) - float(np.sum(pair_ln)))
    canc = np.abs(ln_norms[:-1] + ln_norms[1:] - pair_ln)
    hyp_ok = bool(np.min(norms) >= mu > n and np.max(canc) < 0.5 * math.log(mu))
    return {"lhs": lhs, "rhs_unit": n / mu, "hypothesis_ok": hyp_ok}


# ---------------------------------------------------------------------------
# periodic log-norm bound
# ---------------------------------------------------------------------------


def periodic_ln_bound(V: FourierSeries, p: int, q: int, E: float, n: int) -> dict:
    """L_n(p/q, A) <= L(p/q, A) + (2/n)(ln m + q C1) with n = m q + r.

    L(p/q, A) is exact for a rational frequency: the theta-averaged log
    spectral radius of the period-q block, divided by q.
    """
    c = schrodinger(V, E, p / q)
    th = np.arange(128) / 128
    mats, log_scale = _transfer_grid(c, th, q)
    tr = sl2.tr2(mats) * np.exp(log_scale)
    half = np.abs(tr) / 2.0
    rad = np.where(half > 1.0, half + np.sqrt(np.maximum(half * half - 1.0, 0.0)), 1.0)
    L_per = float(np.mean(np.log(rad))) / q
    Ln = finite_lyapunov(c, n, 128)
    fib = c.series(th)
    C1 = float(np.max(np.log(sl2.op_norm(fib))))
    m = n // q
    bound = L_per + 2.0 / n * (math.log(max(m, 1)) + q * C1)
    return {"L_n": Ln, "L_periodic": L_per, "bound": bound, "slack": bound - Ln,
            "ok": Ln <= bound + 1e-12}


# ---------------------------------------------------------------------------
# induction sequences
# ---------------------------------------------------------------------------


def induction_sequences(cf: CfExpansion, scales: LdtScales, s_max: int,
                        q0_min: int = 5000) -> dict:
    """Generate (q-tilde_s, log N_s, log m_s) per the induction recursion.

    q-tilde_{s+1} is the smallest convergent denominator exceeding
    exp(q-tilde_s^(gamma/2)); N_{s+1} = m_{s+1} N_s with
    m_{s+1} = q-tilde_{s+1} ([q-tilde_{s+1}^(sigma-1)] + 1), so
    q-tilde_s | N_s holds by construction.  Everything that explodes is
    carried in log domain; the q themselves stay exact integers.
    Verification of the window and sandwich inequalities is reported per
    term; `regime_ok` marks scales large enough that the thresholds grow.
    """
    g = scales.gamma
    c = scales.c_ldt
    # searched by bisection in the nondecreasing log q, then read as exact ints; past the
    # held prefix `cf.convergent` raises contfrac.ExactPrefixExceeded
    lq = cf.log_q()
    start = bisect.bisect_left(lq, safe_log_int(max(q0_min, 1)))
    while start <= cf.depth() and cf.convergent(start)[1] < q0_min:
        start += 1  # a log tie below q0_min
    if start > cf.depth():
        raise CfExhausted("no convergent reaches the requested starting scale")

    def mult(qt: int) -> int:
        lq = safe_log_int(qt)
        frac = math.exp((scales.sigma - 1.0) * lq)
        return int(math.floor(frac)) + 1

    terms = []
    qt = cf.convergent(start)[1]
    m0 = mult(qt)
    logN = safe_log_int(qt) + math.log(m0)
    terms.append(
        {
            "s": 0,
            "q_tilde": qt,
            "log_m": math.log(m0),
            "log_N": logN,
            "window_ok": _window_ok(scales, qt, logN),
            "sandwich_ok": None,
            "regime_ok": None,
            "divides": True,
        }
    )
    for s in range(1, s_max + 1):
        ln_qt = safe_log_int(qt)
        expo = (g / 2.0) * ln_qt
        # the threshold for q_tilde_{s+1} is exp(qt^(gamma/2)); compare logs
        thr_ln = math.exp(expo) if expo < 700 else math.inf
        i = bisect.bisect_right(lq, thr_ln)
        if i > cf.depth():
            return {"terms": terms, "exhausted_at": s}
        nxt = cf.convergent(i)[1]
        m = mult(nxt)
        ln_m = safe_log_int(nxt) + math.log(m)
        e4 = (g / 4.0) * ln_qt
        e1 = g * ln_qt
        lo = (c / 2.0) * math.exp(e4) if e4 < 700 else math.inf
        hi = (c / 2.0) * math.exp(e1) if e1 < 700 else math.inf
        sandwich = (lo < ln_m) and (math.log(2.0) + ln_m < hi)
        logN = logN + ln_m
        terms.append(
            {
                "s": s,
                "q_tilde": nxt,
                "log_m": ln_m,
                "log_N": logN,
                "window_ok": _window_ok(scales, nxt, logN),
                "sandwich_ok": sandwich,
                "regime_ok": nxt > qt,
                "divides": True,
            }
        )
        qt = nxt
    return {"terms": terms, "exhausted_at": None}


def _window_ok(scales: LdtScales, qt: int, logN: float) -> bool:
    lq = safe_log_int(qt)
    lo = math.log(scales.C1) + scales.sigma * lq
    hi = math.log(scales.C2) + scales.sigma1 * lq
    return lo < logN < hi
