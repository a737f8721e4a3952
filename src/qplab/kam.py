"""KAM machinery: cohomological solver, su(1,1) resonance handling, the
homotopy-method conjugation, one full inductive step, the parameter
schedule, and the almost-reducibility driver.

Everything that must shrink (perturbations, widths, thresholds) is carried
in log domain.  All near-identity group elements are represented by their
deviation from the identity so that norms can keep contracting honestly
below 1e-16; forming O(1) matrices and subtracting would floor every
measurement at machine epsilon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sl2
from .contfrac import BridgeSelection
from .udspace import (
    FourierSeries,
    Modulus,
    _grid_size,
    gamma_of_log_sat,
    log_norm_mr_ln,
    rotation_series,
    t_tilde_of,
)


class ExactResonance(Exception):
    """A divisor e^{2 pi i k alpha} - 1 vanished at working precision."""


class NewtonDivergence(Exception):
    """The homotopy-functional Newton iteration failed to converge."""


class HypothesisViolated(Exception):
    """A smallness hypothesis of the step was not met (soft failure)."""


# ---------------------------------------------------------------------------
# cohomological equation
# ---------------------------------------------------------------------------


def solve_cohomological(g: FourierSeries, alpha: float, Q: float) -> dict:
    """Solve v(.+alpha) - v = -(T_Q g - mean g) coefficientwise.

    Returns v, the l1 residual of the equation (evaluated in the coefficient
    domain, where the divisor cancellation is exact to rounding), and the
    largest amplification |vhat| / |ghat|.
    """
    if not g.check_real(1e-9):
        raise ValueError("cohomological data must be real-valued")
    ks = g.ks()
    d = np.exp(2j * np.pi * ks * alpha) - 1.0
    inside = (np.abs(ks) < Q) & (ks != 0)
    if np.any(np.abs(d[inside]) < 1e-14):
        bad = ks[inside][np.argmin(np.abs(d[inside]))]
        raise ExactResonance(f"divisor at k={bad} below 1e-14; alpha too rational at this cutoff")
    v = np.zeros_like(g.coeffs)
    v[inside] = -g.coeffs[inside] / d[inside]
    res = np.abs(v[inside] * d[inside] + g.coeffs[inside])
    amp = np.abs(v[inside]) / np.maximum(np.abs(g.coeffs[inside]), 1e-300)
    vser = FourierSeries(v, real_flag=True)
    return {
        "v": vser,
        "residual": float(np.sum(res)),
        "max_amplification": float(np.max(amp)) if np.any(inside) else 0.0,
        "divisor_floor": float(np.min(np.abs(d[inside]))) if np.any(inside) else math.inf,
    }


def coefficient_bound_ok(g: FourierSeries, v: FourierSeries, Qbar: int) -> bool:
    """|vhat(k)| <= Qbar |ghat(k)| for 0 < |k| < Qbar (Qbar a convergent denominator)."""
    ks = v.ks()
    inside = (np.abs(ks) < Qbar) & (ks != 0)
    lhs = np.abs(v.coeffs[inside])
    rhs = Qbar * np.abs(np.asarray([g.c(k) for k in ks[inside]]))
    return bool(np.all(lhs <= rhs * (1 + 1e-12) + 1e-300))


def small_divisor_floor(
    cf_alpha: float, rho: float, gamma: float, tau: float, log_Q_next: float, K: int
) -> dict:
    """min over |k| <= K, both signs, of |e^{2 pi i (k alpha +- 2 rho)} - 1|.

    Compared in log domain against gamma * Q_{n+1}^{-tau^2}.
    """
    ks = np.arange(0, K + 1)
    best = math.inf
    best_k = 0
    for sgn in (1.0, -1.0):
        vals = np.abs(np.exp(2j * np.pi * (ks * cf_alpha + sgn * 2.0 * rho)) - 1.0)
        vals2 = np.abs(np.exp(2j * np.pi * (-ks * cf_alpha + sgn * 2.0 * rho)) - 1.0)
        for arr in (vals, vals2):
            i = int(np.argmin(arr))
            if arr[i] < best:
                best, best_k = float(arr[i]), int(ks[i])
    log_bound = math.log(gamma) - tau**2 * log_Q_next
    holds = math.log(max(best, 1e-300)) >= log_bound
    return {"min_abs": best, "arg_k": best_k, "log_bound": log_bound, "holds": holds}


# ---------------------------------------------------------------------------
# su(1,1) series and near-identity group grids
# ---------------------------------------------------------------------------


@dataclass
class Su11Series:
    """Algebra element {t, v}: t a real-valued series, v a complex-valued one.

    Pointwise matrix [[i t, v], [conj v, -i t]].
    """

    t: FourierSeries
    v: FourierSeries

    @property
    def K(self) -> int:
        return max(self.t.K, self.v.K)

    @classmethod
    def zero(cls, K: int = 0) -> "Su11Series":
        return cls(FourierSeries.zero(K), FourierSeries.zero(K, real_flag=False))

    def __add__(self, other: "Su11Series") -> "Su11Series":
        return Su11Series(self.t + other.t, self.v + other.v)

    def __sub__(self, other: "Su11Series") -> "Su11Series":
        return Su11Series(self.t - other.t, self.v - other.v)

    def scale(self, c: float) -> "Su11Series":
        return Su11Series(self.t * c, self.v * c)

    def shift(self, beta: float) -> "Su11Series":
        return Su11Series(self.t.shift(beta), self.v.shift(beta))

    def conj_by_rot(self, rho: float) -> "Su11Series":
        """A^{-1} X A for A = diag(e^{-2 pi i rho}, e^{2 pi i rho}): v picks e^{4 pi i rho}."""
        ph = np.exp(4j * np.pi * rho)
        return Su11Series(self.t, FourierSeries(self.v.coeffs * ph, False))

    def l1(self) -> float:
        return max(self.t.l1(), self.v.l1())

    def log_norm(self, M: Modulus, ln_r: float) -> float:
        vals = [log_norm_mr_ln(self.t, M, ln_r), log_norm_mr_ln(self.v, M, ln_r)]
        return max(vals)

    def hermitize(self) -> "Su11Series":
        th = FourierSeries((self.t.coeffs + np.conj(self.t.coeffs[::-1])) / 2.0, True)
        return Su11Series(th, self.v)


def sl2_to_su(x: FourierSeries) -> Su11Series:
    e11, e12, e21 = x.entry(0, 0), x.entry(0, 1), x.entry(1, 0)
    t = FourierSeries((e12.coeffs - e21.coeffs) / 2.0, True)
    v = FourierSeries(e11.coeffs - 1j * (e12.coeffs + e21.coeffs) / 2.0, False)
    return Su11Series(t, v)


def su_to_sl2(w: Su11Series) -> FourierSeries:
    K = w.K
    t = w.t.pad_to(K)
    v = w.v.pad_to(K)
    vbar = v.conj_series()
    x = FourierSeries((v.coeffs + vbar.coeffs) / 2.0, True)
    y = FourierSeries(1j * (v.coeffs - vbar.coeffs) / 2.0, True)  # y = -Im v
    return FourierSeries.from_entries(x, y + t, y - t, x * (-1.0))


def split_resonant(w: Su11Series, Q_half: float) -> dict:
    """nre = {0, T_{Q_half} v}; re = {t, R_{Q_half} v}; exact partition."""
    ks = w.v.ks()
    low = np.where(np.abs(ks) < Q_half, w.v.coeffs, 0.0)
    high = w.v.coeffs - low
    nre = Su11Series(FourierSeries.zero(w.t.K), FourierSeries(low, False))
    re = Su11Series(w.t, FourierSeries(high, False))
    return {"nre": nre, "re": re}


def _exp_su_vals(t_vals: np.ndarray, v_vals: np.ndarray):
    """(da, b) of exp of the algebra element with grid values (t, v)."""
    m2 = np.abs(v_vals) ** 2 - t_vals**2
    mu = np.sqrt(np.abs(m2))
    sc = sl2._sinhc(m2)
    chm1 = np.where(m2 >= 0, 2.0 * np.sinh(mu / 2.0) ** 2, -2.0 * np.sin(mu / 2.0) ** 2)
    chm1 = np.where(np.abs(m2) < 1e-12, m2 / 2.0 * (1.0 + m2 / 12.0), chm1)
    da = chm1 + 1j * t_vals * sc
    b = v_vals * sc
    return da, b


def _mul_su(p1, p2):
    da1, b1 = p1
    da2, b2 = p2
    da = da1 + da2 + da1 * da2 + b1 * np.conj(b2)
    b = b2 + b1 + da1 * b2 + b1 * np.conj(da2)
    return da, b


def _log_su_vals(p):
    """(t, v) grid values of the principal log of a near-identity element."""
    da, b = p
    f = sl2._log_factor(1.0 + np.real(da))
    return np.imag(da) * f, b * f


def _su_group_dev(p) -> np.ndarray:
    """sup |P - I| over the grid."""
    da, b = p
    return float(max(np.max(np.abs(da)), np.max(np.abs(b))))


# ---------------------------------------------------------------------------
# homotopy conjugation (Newton on the nonlinear functional)
# ---------------------------------------------------------------------------


def homotopy_conjugate(
    rho: float,
    g: Su11Series,
    alpha: float,
    Q_half: float,
    M: Modulus,
    ln_r: float,
    newton_tol_factor: float = 1e-12,
    max_iter: int = 50,
    enforce_hypothesis: bool = True,
) -> dict:
    """Find Y in the non-resonant space with e^{Y(.+a)} A e^{g} e^{-Y} = A e^{g_re}.

    A = diag(e^{-2 pi i rho}, e^{2 pi i rho}).  The functional
    F(Y) = P_nre log(e^{A^{-1} Y(.+a) A} e^{g} e^{-Y}) is driven to zero by a
    damped Newton iteration whose linearization at 0 is diagonal in Fourier
    with divisors e^{2 pi i (2 rho + k alpha)} - 1.
    """
    K = max(g.K, 4)
    ks = np.arange(-K, K + 1)
    div = np.exp(2j * np.pi * (2.0 * rho + ks * alpha)) - 1.0
    nre_mask = np.abs(ks) < Q_half
    floor = float(np.min(np.abs(div[nre_mask])))
    if floor < 1e-14:
        raise ExactResonance("nre divisor below 1e-14")
    ln_g = g.log_norm(M, ln_r)
    hyp_ok = ln_g <= 2.0 * math.log(floor) - math.log(64.0)
    if enforce_hypothesis and not hyp_ok:
        raise HypothesisViolated(
            f"||g|| (log {ln_g:.2f}) above divisor_floor^2/64 (floor {floor:.3e})"
        )

    G = _grid_size(4 * K + 8)
    g_t_vals = np.real(g.t.pad_to(K).values(G))
    g_v_vals = g.v.pad_to(K).values(G)
    ph4 = np.exp(4j * np.pi * rho)

    def f_of(y_coeffs: np.ndarray):
        """F(Y) coefficients on the nre modes, plus the full log grids."""
        ys = FourierSeries(y_coeffs, False)
        y_vals = ys.values(G)
        yshift_vals = ys.shift(alpha).values(G) * ph4  # A^{-1} Y(.+a) A, v-part
        e1 = _exp_su_vals(np.zeros(G), yshift_vals)
        e2 = _exp_su_vals(g_t_vals, g_v_vals)
        e3 = _exp_su_vals(np.zeros(G), -y_vals)
        p = _mul_su(_mul_su(e1, e2), e3)
        t_log, v_log = _log_su_vals(p)
        v_co = FourierSeries.from_values(v_log, K, tail_tol=None).coeffs
        f_co = np.where(nre_mask, v_co, 0.0)
        return f_co, (t_log, v_log), p

    y = np.zeros(2 * K + 1, dtype=complex)
    f_co, logs, p = f_of(y)
    fnorm = float(np.sum(np.abs(f_co)))
    tol = newton_tol_factor * max(1.0, math.exp(min(ln_g, 50.0)))
    iters = 0
    polish = 0
    trace = [fnorm]
    while iters < max_iter:
        if fnorm <= tol:
            # one or two polish steps while they still help substantially
            if polish >= 2 or fnorm == 0.0:
                break
            polish += 1
        step = np.where(nre_mask, f_co / div, 0.0)
        damping = 1.0
        improved = False
        for _ in range(6):
            y_try = y - damping * step
            f_try, logs_try, p_try = f_of(y_try)
            fn_try = float(np.sum(np.abs(f_try)))
            if fn_try < fnorm:
                y, f_co, logs, p, fnorm = y_try, f_try, logs_try, p_try, fn_try
                improved = True
                break
            damping *= 0.5
        iters += 1
        trace.append(fnorm)
        if not improved:
            if fnorm <= tol:
                break
            raise NewtonDivergence(f"no descent at iteration {iters}; trace={trace}")
    if fnorm > tol:
        raise NewtonDivergence(f"not converged after {max_iter} iterations; trace={trace}")

    t_log, v_log = logs
    g_v = FourierSeries.from_values(v_log, K, False, tail_tol=None)
    g_re = Su11Series(FourierSeries.from_values(t_log, K, True, tail_tol=None), g_v).hermitize()
    Y = Su11Series(FourierSeries.zero(K), FourierSeries(y, False))

    # a-posteriori conjugation residual on the grid, all in deviation form
    e_re = _exp_su_vals(np.real(g_re.t(np.arange(G) / G)), g_re.v(np.arange(G) / G))
    da_d = p[0] - e_re[0]
    b_d = p[1] - e_re[1]
    residual = float(max(np.max(np.abs(da_d)), np.max(np.abs(b_d))))
    nre_leak = float(np.sum(np.abs(np.where(nre_mask, g_v.coeffs, 0.0))))
    return {
        "Y": Y,
        "g_re": g_re,
        "residual": residual,
        "nre_leak": nre_leak,
        "iterations": iters,
        "divisor_floor": floor,
        "hypothesis_ok": hyp_ok,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# the parameter schedule
# ---------------------------------------------------------------------------


def schedule(
    sel: BridgeSelection,
    M: Modulus,
    gamma: float,
    tau: float,
    r0: float,
    C_total: float = 1e3,
) -> dict:
    """Log-domain schedule: T, eps_0, and per-level widths and thresholds.

    The re-basing index n0 (first level with Qbar past T) is searched for in
    the realized selection; when T is beyond the computed range the schedule
    is emitted unrebased with n0_found = False.
    """
    A = sel.A
    ln_ttilde = t_tilde_of(M, A, tau)
    ln_T = max(
        3.0 * math.log(max(M.c_M, 1e-300)),
        3.0 * ln_ttilde,
        -12.0 * math.log(r0),
        2.0 * tau * math.log(4.0 / gamma),
    )
    lqb = sel.log_Qbar()
    lq = [sl2.safe_log_int(v) for v in sel.Q]
    n0 = None
    m0 = None
    for k in range(len(lq)):
        if lq[k] <= ln_T:
            m0 = k
    if m0 is not None and m0 + 1 < len(lq):
        n0 = m0 - 1 if lqb[m0] >= ln_T else m0
        if n0 + 1 >= len(lq) or lqb[n0 + 1] < ln_T:
            n0 = None
    base = n0 if n0 is not None else 0
    ln_eps0 = -8.0 * A**4 * tau**2 * ln_T
    levels = []
    ln_eps_rel = 0.0  # log(eps_n / eps_0): stays representable while eps_0 may not
    ln_eps_rel_list = []
    for n in range(1, len(sel.idx) - base):
        lnqb_n = lqb[base + n]
        lnqb_prev = lqb[base + n - 1]
        g_val = gamma_of_log_sat(M, lnqb_n / 3.0)
        g_half = math.sqrt(g_val) if math.isfinite(g_val) else math.inf
        ln_eps_rel = ln_eps_rel - g_half * lnqb_n
        ln_eps_rel_list.append(ln_eps_rel)
        m = max(ln_eps_rel_list)
        if math.isfinite(m):
            ln_eps_tilde = (
                math.log(C_total)
                + ln_eps0
                + m
                + math.log(sum(math.exp(v - m) for v in ln_eps_rel_list))
            )
        else:
            ln_eps_tilde = -math.inf
        levels.append(
            {
                "n": n,
                "log_r": -2.0 * lnqb_prev + math.log(r0),
                "log_rbar": math.log(2.0) - 2.0 * lnqb_n + math.log(r0),
                "log_eps": ln_eps0 + ln_eps_rel,
                "log_eps_rel": ln_eps_rel,
                "log_eps_tilde": ln_eps_tilde,
            }
        )
    return {
        "log_T": ln_T,
        "log_T_tilde": ln_ttilde,
        "log_eps0": ln_eps0,
        "n0": n0,
        "n0_found": n0 is not None,
        "levels": levels,
    }


# ---------------------------------------------------------------------------
# one KAM step and the driver
# ---------------------------------------------------------------------------


@dataclass
class KamState:
    """State after `level` steps: cocycle (alpha, R_{rho_f + g_n/2pi} e^{F_n})."""

    level: int
    alpha: float
    rho_f: float
    g: FourierSeries
    F: FourierSeries
    ln_r: float
    ln_rbar: float
    log_eps_measured: float
    conj: Optional[FourierSeries] = None  # accumulated conjugation as a series
    meta: dict = field(default_factory=dict)

    def cocycle_series(self, out_K: Optional[int] = None) -> FourierSeries:
        rot_arg = FourierSeries(self.g.coeffs / (2.0 * math.pi), True) + FourierSeries.constant(
            self.rho_f
        )
        R = rotation_series(rot_arg, out_K=out_K or (4 * max(self.g.K, self.F.K, 1) + 8))
        E = self.F.exp_map(out_K=R.K)
        return R.mat_mul(E, out_K=R.K, tail_tol=None)


def _rot_conj_series(F: FourierSeries, v: FourierSeries, sign: float, out_K: int) -> FourierSeries:
    """e^{sign * v J} F e^{-sign * v J} pointwise on the grid; F small, rotations O(1)."""
    G = _grid_size(max(2 * out_K, 2 * (F.K + 2 * v.K) + 8))
    th = np.arange(G) / G
    ang = sign * np.real(v(th)) / (2.0 * math.pi)  # e^{vJ} = R_{-v/2pi}
    R = sl2.rot(-ang)
    Rinv = sl2.rot(ang)
    vals = R @ F.values(G) @ Rinv
    return FourierSeries.from_values(vals, out_K, F.real_flag, tail_tol=None)


def kam_step(
    state: KamState,
    sel: BridgeSelection,
    M: Modulus,
    gamma: float,
    tau: float,
    K_work: int = 48,
    mode: str = "measured",
    sched: Optional[dict] = None,
) -> KamState:
    """One inductive step: remove g_n, contract F_n, restore the rotation frame.

    Sub-conjugations, in order: (i) e^{-v_n J} with v_n from the cohomological
    equation, absorbing the mean of g_n into the perturbation; (ii) the su(1,1)
    homotopy conjugation followed by the resonant re-truncation; (iii) e^{+v_n J}.
    """
    n = state.level
    if n + 1 >= sel.levels():
        raise IndexError("bridge selection exhausted; extend the expansion")
    lqb = sel.log_Qbar()
    alpha, rho_f = state.alpha, state.rho_f
    ln_r0 = state.meta.get("ln_r0", state.ln_r)

    if mode == "strict":
        if sched is None or not sched["n0_found"]:
            raise HypothesisViolated("strict mode: schedule has no realized re-basing level")
        if n == 0:
            thr = sched["log_eps0"]
        elif n - 1 < len(sched["levels"]):
            thr = sched["levels"][n - 1]["log_eps"]
        else:
            raise HypothesisViolated("strict mode: schedule exhausted at this level")
        if state.log_eps_measured > thr:
            raise HypothesisViolated(
                f"strict mode: measured log eps {state.log_eps_measured:.2f} above "
                f"schedule threshold {thr:.2f}"
            )

    # -- (i) remove the oscillating part of g_n ------------------------------
    g_n = state.g
    mean_g = float(np.real(g_n.mean()))
    if g_n.l1() > 0:
        sol = solve_cohomological(g_n, alpha, Q=math.inf)  # support already < Qbar_n
        v_n = sol["v"]
        cohom_residual = sol["residual"]
    else:
        v_n = FourierSeries.zero(0)
        cohom_residual = 0.0
    Fbar = _rot_conj_series(state.F, v_n, -1.0, K_work) if v_n.l1() > 0 else state.F

    # absorb the mean: F_tilde = log(R_{mean/2pi} e^{Fbar})
    G = _grid_size(2 * K_work + 8)
    dev_R = sl2.rot(mean_g / (2.0 * math.pi)) - np.eye(2)
    E_F = sl2.sl2_expm1(Fbar.values(G))
    dev = dev_R[None, :, :] + E_F + dev_R[None, :, :] @ E_F
    Ftilde_vals = sl2.sl2_log_dev(dev)
    Ftilde = FourierSeries.from_values(Ftilde_vals, K_work, True, tail_tol=None)

    # -- (ii) su(1,1) homotopy conjugation + resonant re-truncation ----------
    W = sl2_to_su(Ftilde).hermitize()
    ln_qb_next = lqb[n + 1]
    Q_half = math.exp(0.5 * ln_qb_next) if 0.5 * ln_qb_next < 700 else math.inf
    hres = homotopy_conjugate(
        rho_f, W, alpha, Q_half, M, state.ln_rbar,
        enforce_hypothesis=(mode == "strict"),
    )
    Y, W_re = hres["Y"], hres["g_re"]
    Q_next = math.exp(ln_qb_next) if ln_qb_next < 700 else math.inf
    f_t = W_re.t
    ks = f_t.ks()
    t_low = FourierSeries(np.where(np.abs(ks) < Q_next, f_t.coeffs, 0.0), True)
    # E = e^{-{t_low, 0}} e^{W_re}; G_su = log E
    Gg = _grid_size(4 * W_re.K + 8)
    th = np.arange(Gg) / Gg
    e_low = _exp_su_vals(-np.real(t_low(th)), np.zeros(Gg))
    e_re = _exp_su_vals(np.real(W_re.t(th)), W_re.v(th))
    p = _mul_su(e_low, e_re)
    tG, vG = _log_su_vals(p)
    G_su = Su11Series(
        FourierSeries.from_values(tG, K_work, False, tail_tol=None),
        FourierSeries.from_values(vG, K_work, False, tail_tol=None),
    ).hermitize()
    g_tilde = FourierSeries(-t_low.coeffs, True)
    G_sl2 = su_to_sl2(G_su)

    # -- (iii) undo the first rotation frame ----------------------------------
    F_next = _rot_conj_series(G_sl2, v_n, +1.0, K_work) if v_n.l1() > 0 else G_sl2
    g_next = g_tilde + g_n - FourierSeries.constant(mean_g)
    if not g_next.K < Q_next:
        raise HypothesisViolated("g_{n+1} support reaches the next cutoff")

    ln_rbar_next = math.log(2.0) - 2.0 * ln_qb_next + ln_r0
    ln_r_next = -2.0 * lqb[n] + ln_r0
    log_eps_next = log_norm_mr_ln(F_next, M, ln_r_next)

    # step conjugation Phi_n = e^{v_n J} Psi_n e^{-v_n J}, Psi_n = exp(Y in sl2)
    Psi_dev_norm = None
    conj = state.conj
    Y_sl2 = su_to_sl2(Y)
    Gc = _grid_size(2 * max(K_work, Y_sl2.K, v_n.K * 2) + 8)
    thc = np.arange(Gc) / Gc
    ang = np.real(v_n(thc)) / (2.0 * math.pi)
    Rv = sl2.rot(-ang)  # e^{v J}
    Rvinv = sl2.rot(ang)
    Psi_vals = sl2.sl2_exp(Y_sl2.values(Gc))
    Phi_vals = Rv @ Psi_vals @ Rvinv
    Psi_dev_norm = float(np.max(sl2.frob(Phi_vals - np.eye(2))))
    if conj is not None:
        conj_vals = Phi_vals @ conj.values(Gc)
        conj = FourierSeries.from_values(conj_vals, min(conj.K + K_work, 4 * K_work), True, tail_tol=None)
    else:
        conj = FourierSeries.from_values(Phi_vals, K_work, True, tail_tol=None)

    meta = dict(state.meta)
    meta.update(
        {
            "ln_r0": ln_r0,
            "cohom_residual": cohom_residual,
            "newton_iterations": hres["iterations"],
            "newton_residual": hres["residual"],
            "nre_leak": hres["nre_leak"],
            "divisor_floor": hres["divisor_floor"],
            "hypothesis_ok": hres["hypothesis_ok"],
            "phi_dist": Psi_dev_norm,
        }
    )
    return KamState(
        level=n + 1,
        alpha=alpha,
        rho_f=rho_f,
        g=g_next,
        F=F_next,
        ln_r=ln_r_next,
        ln_rbar=ln_rbar_next,
        log_eps_measured=log_eps_next,
        conj=conj,
        meta=meta,
    )


def initial_state(
    alpha: float,
    rho_f: float,
    F: FourierSeries,
    M: Modulus,
    sel: BridgeSelection,
    r0: float = 0.5,
) -> KamState:
    ln_r0 = math.log(r0)
    ln_rbar0 = math.log(2.0 * r0)  # first step works at the full width r = 2 r0
    return KamState(
        level=0,
        alpha=alpha,
        rho_f=rho_f,
        g=FourierSeries.zero(0),
        F=F,
        ln_r=ln_rbar0,
        ln_rbar=ln_rbar0,
        log_eps_measured=log_norm_mr_ln(F, M, ln_rbar0),
        meta={"ln_r0": ln_r0},
    )


def conjugation_residual(state: KamState, A0: FourierSeries, G: int = 512) -> float:
    """sup-grid norm of B(.+alpha) A0(.) B(.)^{-1} - R_{rho_f + g/2pi} e^{F}."""
    if state.conj is None:
        B = FourierSeries.constant(np.eye(2))
    else:
        B = state.conj
    th = np.arange(G) / G
    Bv = B(th)
    Bshift = B.shift(state.alpha)(th)
    Av = A0(th)
    lhs = Bshift @ Av @ sl2.inv_det1(Bv)
    target = state.cocycle_series()(th)
    return float(np.max(sl2.frob(lhs - target)))


def almost_reducibility_driver(
    alpha: float,
    A0: FourierSeries,
    rho_f: float,
    M: Modulus,
    sel: BridgeSelection,
    steps: int,
    gamma: float = 0.1,
    tau: float = 1.5,
    r0: float = 0.5,
    mode: str = "measured",
    K_work: int = 48,
    tol_log_eps: float = -745.0,
) -> dict:
    """Iterate kam_step from (alpha, A0), recording a ledger per level.

    Stops at `steps`, at perturbations below exp(tol_log_eps), or at the
    first hypothesis violation (reported, not fatal).
    """
    K_work = max(K_work, A0.K + 8)
    R = rotation_series(FourierSeries.constant(rho_f), out_K=2)
    G = _grid_size(4 * max(A0.K, K_work))
    dev = sl2.rot(-rho_f)[None, :, :] @ (A0 - R).values(G)
    F0 = FourierSeries.from_values(sl2.sl2_log_dev(dev), K_work, True, tail_tol=None)
    state = initial_state(alpha, rho_f, F0, M, sel, r0)
    sched = None
    if mode == "strict":
        sched = schedule(sel, M, gamma, tau, r0)
    ledger = []
    stop_reason = f"completed {steps} steps"
    for _ in range(steps):
        try:
            state = kam_step(state, sel, M, gamma, tau, K_work=K_work, mode=mode, sched=sched)
        except (HypothesisViolated, NewtonDivergence, ExactResonance, IndexError) as exc:
            stop_reason = f"stopped at level {state.level}: {exc}"
            break
        residual = conjugation_residual(state, A0)
        entry = {
            "level": state.level,
            "log_eps_measured": state.log_eps_measured,
            "log_eps_schedule": (
                sched["levels"][state.level - 1]["log_eps"]
                if sched and state.level - 1 < len(sched["levels"])
                else None
            ),
            "residual": residual,
            "phi_dist": state.meta.get("phi_dist"),
            "divisor_margin": state.meta.get("divisor_floor"),
        }
        ledger.append(entry)
        if state.log_eps_measured < tol_log_eps:
            stop_reason = f"perturbation below tolerance at level {state.level}"
            break
    return {"state": state, "ledger": ledger, "stop_reason": stop_reason}


def ledger_to_jsonl(ledger: list) -> str:
    return "\n".join(json.dumps(e) for e in ledger) + ("\n" if ledger else "")
