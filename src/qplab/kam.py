"""KAM machinery: cohomological solver, su(1,1) resonance handling, the
homotopy-method conjugation, one full inductive step, and the
almost-reducibility driver.

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
    AliasingError,
    FourierSeries,
    Modulus,
    _grid_ifft,
    _grid_size,
    _grid_values,
    log_norm_mr_ln,
    rotation_series,
)


class ExactResonance(Exception):
    """A divisor e^{2 pi i k alpha} - 1 vanished at working precision."""


class NewtonDivergence(Exception):
    """The homotopy-functional Newton iteration failed to converge."""


class HypothesisViolated(Exception):
    """A smallness hypothesis of the step was not met (soft failure)."""


class SelectionExhausted(Exception):
    """The bridge selection has no level past the current one."""


# ---------------------------------------------------------------------------
# cohomological equation
# ---------------------------------------------------------------------------


def solve_cohomological(g: FourierSeries, alpha: float, Q: float) -> dict:
    """Solve v(.+alpha) - v = -(T_Q g - mean g) coefficientwise.

    Returns v, the l1 residual of the equation (evaluated in the coefficient
    domain, where the divisor cancellation is exact to rounding), and the
    smallest divisor.
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
    return {
        "v": FourierSeries(v, real_flag=True),
        "residual": float(np.sum(res)),
        "divisor_floor": float(np.min(np.abs(d[inside]))) if np.any(inside) else math.inf,
    }


def coefficient_bound_ok(g: FourierSeries, v: FourierSeries, Qbar: int) -> bool:
    """|vhat(k)| <= Qbar |ghat(k)| for 0 < |k| < Qbar (Qbar a convergent denominator)."""
    ks = v.ks()
    inside = (np.abs(ks) < Qbar) & (ks != 0)
    lhs = np.abs(v.coeffs[inside])
    rhs = Qbar * np.abs(np.asarray([g.c(k) for k in ks[inside]]))
    return bool(np.all(lhs <= rhs * (1 + 1e-12) + 1e-300))


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

    def scale(self, c: float) -> "Su11Series":
        return Su11Series(self.t * c, self.v * c)

    @property
    def coeffs(self) -> np.ndarray:
        """The coefficient rows of t and v at the common bandwidth K, shape (2, 2K+1)."""
        K = self.K
        return np.stack([self.t.pad_to(K).coeffs, self.v.pad_to(K).coeffs])

    def log_norm(self, M: Modulus, ln_r: float) -> float:
        """The larger log modulus norm of t and v, both rows in one walk over s."""
        return log_norm_mr_ln(self, M, ln_r)

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


def _exp_su_vals(t_vals: np.ndarray, v_vals: np.ndarray):
    """(da, b) of exp of the algebra element with grid values (t, v)."""
    m2 = np.abs(v_vals) ** 2 - t_vals**2
    sc = sl2._sinhc(m2)
    # cosh(mu) - 1 = 2 sinh^2(mu/2) and cos(mu) - 1 = -2 sin^2(mu/2), each entry on its own
    # branch; the series below |mu^2| = 1e-12
    chm1 = np.asarray(m2 / 2.0 * (1.0 + m2 / 12.0))
    hyp, circ = m2 >= 1e-12, m2 <= -1e-12
    chm1[hyp] = 2.0 * np.sinh(np.sqrt(m2[hyp]) / 2.0) ** 2
    chm1[circ] = -2.0 * np.sin(np.sqrt(-m2[circ]) / 2.0) ** 2
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
) -> dict:
    """Find Y in the non-resonant space with e^{Y(.+a)} A e^{g} e^{-Y} = A e^{g_re}.

    A = diag(e^{-2 pi i rho}, e^{2 pi i rho}).  The functional
    F(Y) = P_nre log(e^{A^{-1} Y(.+a) A} e^{g} e^{-Y}) is driven to zero by a
    damped Newton iteration whose linearization at 0 is diagonal in Fourier
    with divisors e^{2 pi i (2 rho + k alpha)} - 1.  The smallness hypothesis
    ||g|| <= divisor_floor^2 / 64 is measured and returned as hypothesis_ok,
    not enforced.
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

    G = _grid_size(4 * K + 8)
    g_t_vals = np.real(g.t.pad_to(K).values(G))
    g_v_vals = g.v.pad_to(K).values(G)
    ph4 = np.exp(4j * np.pi * rho)
    shift = np.exp(2j * np.pi * ks * alpha)  # the phases of Y(.+a)
    zero_t = np.zeros(G)
    e2 = _exp_su_vals(g_t_vals, g_v_vals)

    def product(y_coeffs: np.ndarray):
        """e^{A^{-1} Y(.+a) A} e^{g} e^{-Y} on the grid; Y and Y(.+a) come from one inverse DFT."""
        y_vals, yshift_vals = _grid_ifft(np.stack([y_coeffs, y_coeffs * shift]), G)
        e1 = _exp_su_vals(zero_t, yshift_vals * ph4)  # A^{-1} Y(.+a) A, v-part
        e3 = _exp_su_vals(zero_t, -y_vals)
        return _mul_su(_mul_su(e1, e2), e3)

    def f_of(p):
        """F(Y) coefficients on the nre modes, plus the full log grids, from the product p."""
        t_log, v_log = _log_su_vals(p)
        v_co = FourierSeries.from_values(v_log, K, tail_tol=None).coeffs
        f_co = np.where(nre_mask, v_co, 0.0)
        return f_co, (t_log, v_log), p

    y = np.zeros(2 * K + 1, dtype=complex)
    f_co, logs, p = f_of(e2)  # at Y = 0 the product is e^{g}
    fnorm = float(np.sum(np.abs(f_co)))
    tol = 1e-12 * max(1.0, math.exp(min(ln_g, 50.0)))
    iters = 0
    polish = 0
    trace = [fnorm]
    while iters < 50:
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
            f_try, logs_try, p_try = f_of(product(y_try))
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
        raise NewtonDivergence(f"not converged after 50 iterations; trace={trace}")

    t_log, v_log = logs
    g_v = FourierSeries.from_values(v_log, K, False, tail_tol=None)
    g_re = Su11Series(FourierSeries.from_values(t_log, K, True, tail_tol=None), g_v).hermitize()
    Y = Su11Series(FourierSeries.zero(K), FourierSeries(y, False))

    # a-posteriori conjugation residual on the grid, all in deviation form
    e_re = _exp_su_vals(g_re.t.values(G), g_re.v.values(G))
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
# one KAM step and the driver
# ---------------------------------------------------------------------------

_R0 = 0.5  # the initial width r0; the first step works at the full width 2 r0 = 1


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
    conj: Optional[FourierSeries] = None  # accumulated conjugation B, held at K_work
    meta: dict = field(default_factory=dict)

    def cocycle_series(self) -> FourierSeries:
        rot_arg = FourierSeries(self.g.coeffs / (2.0 * math.pi), True) + FourierSeries.constant(
            self.rho_f
        )
        R = rotation_series(rot_arg, out_K=max(self.g.K, self.F.K, 1) + 8)
        E = self.F.exp_map(out_K=R.K)
        return R.mat_mul(E, out_K=R.K)


def _rot_conj_series(F: FourierSeries, v: FourierSeries, sign: float, out_K: int) -> FourierSeries:
    """e^{sign * v J} F e^{-sign * v J} pointwise on the grid; F small, rotations O(1)."""
    G = _grid_size(max(2 * out_K, 2 * (F.K + 2 * v.K) + 8))
    ang = sign * np.real(v.values(G)) / (2.0 * math.pi)  # e^{vJ} = R_{-v/2pi}
    R = sl2.rot(-ang)
    Rinv = sl2.rot(ang)
    vals = R @ F.values(G) @ Rinv
    return FourierSeries.from_values(vals, out_K, F.real_flag, tail_tol=None)


def kam_step(
    state: KamState,
    sel: BridgeSelection,
    M: Modulus,
    K_work: int = 48,
) -> KamState:
    """One inductive step: remove g_n, contract F_n, restore the rotation frame.

    Sub-conjugations, in order: (i) e^{-v_n J} with v_n from the cohomological
    equation, absorbing the mean of g_n into the perturbation; (ii) the su(1,1)
    homotopy conjugation followed by the resonant re-truncation; (iii) e^{+v_n J}.
    The homotopy step's smallness hypothesis is measured and recorded in
    meta["hypothesis_ok"], not enforced.
    """
    n = state.level
    if n + 1 >= sel.levels():
        raise SelectionExhausted("bridge selection exhausted; extend the expansion")
    lqb = sel.log_Qbar()
    alpha, rho_f = state.alpha, state.rho_f
    ln_r0 = math.log(_R0)

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
    hres = homotopy_conjugate(rho_f, W, alpha, Q_half, M, state.ln_rbar)
    Y, W_re = hres["Y"], hres["g_re"]
    Q_next = math.exp(ln_qb_next) if ln_qb_next < 700 else math.inf
    f_t = W_re.t
    ks = f_t.ks()
    t_low = FourierSeries(np.where(np.abs(ks) < Q_next, f_t.coeffs, 0.0), True)
    # E = e^{-{t_low, 0}} e^{W_re}; G_su = log E
    Gg = _grid_size(4 * W_re.K + 8)
    e_low = _exp_su_vals(-t_low.values(Gg), np.zeros(Gg))
    e_re = _exp_su_vals(W_re.t.values(Gg), W_re.v.values(Gg))
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
    conj = state.conj
    Y_sl2 = su_to_sl2(Y)
    Gc = _grid_size(2 * max(K_work, Y_sl2.K, v_n.K * 2) + 8)
    ang = np.real(v_n.values(Gc)) / (2.0 * math.pi)
    Rv = sl2.rot(-ang)  # e^{v J}
    Rvinv = sl2.rot(ang)
    Y_vals = Y_sl2.values(Gc)
    Phi_vals = Rv @ sl2.sl2_exp(Y_vals) @ Rvinv
    # Phi_n - I = e^{v J} (exp(Y) - I) e^{-v J}, so the distance is not floored at eps
    Psi_dev_norm = float(np.max(sl2.frob(Rv @ sl2.sl2_expm1(Y_vals) @ Rvinv)))
    # B = Phi_n ... Phi_1 is held at K_work; the default guard refuses a product that outgrows it
    conj = FourierSeries.from_values(Phi_vals if conj is None else Phi_vals @ conj.values(Gc),
                                     K_work, True)

    meta = dict(state.meta)
    meta.update(
        {
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


def initial_state(alpha: float, rho_f: float, F: FourierSeries, M: Modulus) -> KamState:
    ln_rbar0 = math.log(2.0 * _R0)  # first step works at the full width r = 2 r0
    return KamState(
        level=0,
        alpha=alpha,
        rho_f=rho_f,
        g=FourierSeries.zero(0),
        F=F,
        ln_r=ln_rbar0,
        ln_rbar=ln_rbar0,
        log_eps_measured=log_norm_mr_ln(F, M, ln_rbar0),
    )


def conjugation_residual(state: KamState, A0: FourierSeries) -> float:
    """512-point sup-grid norm of B(.+alpha) A0(.) B(.)^{-1} - R_{rho_f + g/2pi} e^{F}."""
    return _residual_on_grid(state, _grid_values(A0, 512))


def _residual_on_grid(state: KamState, A0_vals: np.ndarray) -> float:
    """`conjugation_residual` with A0 given by its values on the 512-point grid."""
    if state.conj is None:
        B = FourierSeries.constant(np.eye(2))
    else:
        B = state.conj
    Bv = _grid_values(B, 512)
    Bshift = _grid_values(B.shift(state.alpha), 512)
    lhs = Bshift @ A0_vals @ sl2.inv_det1(Bv)
    target = _grid_values(state.cocycle_series(), 512)
    return float(np.max(sl2.frob(lhs - target)))


def almost_reducibility_driver(
    alpha: float,
    A0: FourierSeries,
    rho_f: float,
    M: Modulus,
    sel: BridgeSelection,
    steps: int,
    K_work: int = 48,
) -> dict:
    """Iterate kam_step from (alpha, A0), recording a ledger per level.

    Stops at `steps`, at perturbations below exp(-745) (the float64
    underflow), or at the first hypothesis violation, resonance, exhausted
    bridge selection or series that outgrows its band (reported in
    `stop_reason`, not fatal); `state` is then the last level with a ledger
    entry.
    """
    K_work = max(K_work, A0.K + 8)
    R = rotation_series(FourierSeries.constant(rho_f), out_K=2)
    G = _grid_size(4 * max(A0.K, K_work))
    dev = sl2.rot(-rho_f)[None, :, :] @ (A0 - R).values(G)
    F0 = FourierSeries.from_values(sl2.sl2_log_dev(dev), K_work, True, tail_tol=None)
    state = initial_state(alpha, rho_f, F0, M)
    A0_vals = _grid_values(A0, 512)
    ledger = []
    stop_reason = f"completed {steps} steps"
    for _ in range(steps):
        try:
            nxt = kam_step(state, sel, M, K_work=K_work)
            residual = _residual_on_grid(nxt, A0_vals)
        except (HypothesisViolated, NewtonDivergence, ExactResonance, SelectionExhausted,
                AliasingError) as exc:
            stop_reason = f"stopped at level {state.level}: {exc}"
            break
        state = nxt
        entry = {
            "level": state.level,
            "log_eps_measured": state.log_eps_measured,
            "residual": residual,
            "phi_dist": state.meta.get("phi_dist"),
            "divisor_margin": state.meta.get("divisor_floor"),
        }
        ledger.append(entry)
        if state.log_eps_measured < -745.0:
            stop_reason = f"perturbation below tolerance at level {state.level}"
            break
    return {"state": state, "ledger": ledger, "stop_reason": stop_reason}


def ledger_to_jsonl(ledger: list) -> str:
    return "\n".join(json.dumps(e) for e in ledger) + ("\n" if ledger else "")
