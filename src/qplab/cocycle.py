"""Quasiperiodic SL(2,R) cocycles over the irrational rotation.

Transfer matrices with overflow-guarded scaling, finite Lyapunov exponents
by grid quadrature, the fibered rotation number estimated from a single
projective orbit, and the renormalization iterates with their commutation
identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import sl2
from .contfrac import CfExpansion
from .udspace import FourierSeries

RESCALE_EVERY = 32


class WindingError(Exception):
    """Fiber map is not homotopic to the identity."""


@dataclass
class Sl2Mat:
    """2x2 real matrix with |det - 1| <= 1e-10, possibly carried in scaled form.

    The true matrix is exp(log_scale) * m; log_scale is nonzero only for long
    transfer products whose entries would overflow doubles.
    """

    m: np.ndarray
    log_scale: float = 0.0

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if self.m.shape != (2, 2):
            raise ValueError("Sl2Mat needs a 2x2 array")

    @property
    def det(self) -> float:
        return float(sl2.det2(self.m)) * math.exp(2.0 * self.log_scale)

    @property
    def log_det(self) -> float:
        return math.log(abs(float(sl2.det2(self.m)))) + 2.0 * self.log_scale

    def norm(self) -> float:
        return float(sl2.op_norm(self.m)) * math.exp(self.log_scale)

    def log_norm(self) -> float:
        return math.log(float(sl2.op_norm(self.m))) + self.log_scale

    def plain(self) -> np.ndarray:
        return self.m * math.exp(self.log_scale)

    def check(self, tol: float = 1e-10) -> bool:
        return abs(self.det - 1.0) <= tol if self.log_scale == 0.0 else abs(self.log_det) <= tol


@dataclass
class QpCocycle:
    """(alpha, A): base rotation by alpha, fiber A(theta) in SL(2,R).

    The fiber is either a 2x2 FourierSeries or an exact closure theta -> (2,2) array
    (used for Schrodinger/AMO fibers so no Fourier truncation enters).
    """

    alpha: float
    fiber: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    series: Optional[FourierSeries] = None

    @classmethod
    def from_series(cls, alpha: float, A: FourierSeries, label: str = "") -> "QpCocycle":
        return cls(alpha, lambda th: A(th), label, series=A)

    def __call__(self, theta):
        return self.fiber(np.asarray(theta, dtype=float))

    def check_sl2(self, G: int = 256, tol: float = 1e-10) -> bool:
        th = np.arange(G) / G
        vals = self.fiber(th)
        return bool(np.max(np.abs(sl2.det2(vals) - 1.0)) <= tol)

    def winding(self, G: int = 256) -> int:
        """Winding number of theta -> direction of A(theta) e_1."""
        th = np.arange(G + 1) / G
        vals = self.fiber(th)
        ang = np.arctan2(vals[..., 1, 0], vals[..., 0, 0])
        dd = np.diff(ang)
        dd = (dd + np.pi) % (2 * np.pi) - np.pi
        return int(round(np.sum(dd) / (2 * np.pi)))

    def to_config(self) -> dict:
        return {"alpha": self.alpha, "fiber": {"label": self.label}}


def schrodinger(V: FourierSeries, E: float, alpha: float = 0.0) -> QpCocycle:
    """Schrodinger cocycle fiber [[E - V(theta), -1], [1, 0]]."""
    if not V.check_real(1e-10):
        raise ValueError("potential must be real-valued")

    def fiber(th):
        return sl2.schrodinger_fiber(np.real(V(th)), E)

    return QpCocycle(alpha, fiber, label=f"schrodinger(E={E})")


def amo(lam: float, E: float, alpha: float = 0.0) -> QpCocycle:
    """Almost Mathieu fiber with the 1-periodic convention V = 2 lam cos(2 pi theta)."""

    def fiber(th):
        return sl2.schrodinger_fiber(2.0 * lam * np.cos(2.0 * np.pi * np.asarray(th, dtype=float)), E)

    return QpCocycle(alpha, fiber, label=f"amo(lambda={lam},E={E})")


def rotation_cocycle(alpha: float, rho: float) -> QpCocycle:
    def fiber(th):
        th = np.asarray(th, dtype=float)
        return np.broadcast_to(sl2.rot(rho), th.shape + (2, 2)).copy()

    return QpCocycle(alpha, fiber, label=f"rotation(rho={rho})")


def transfer(c: QpCocycle, theta: float, n: int) -> Sl2Mat:
    """n-step transfer matrix A_n(theta); n < 0 uses the inverse-product convention.

    Products are rescaled every few steps with the log of the scale factor
    accumulated separately, so arbitrarily long hyperbolic products stay
    representable.
    """
    if n == 0:
        return Sl2Mat(np.eye(2))
    alpha = c.alpha
    acc = np.eye(2)
    log_scale = 0.0
    if n > 0:
        steps = theta + alpha * np.arange(n)
    else:
        steps = theta + alpha * np.arange(-1, n - 1, -1)
    vals = c.fiber(np.mod(steps, 1.0))
    if n < 0:
        vals = sl2.inv_det1(vals)
    for j in range(abs(n)):
        acc = vals[j] @ acc
        if (j + 1) % RESCALE_EVERY == 0:
            s = float(np.max(np.abs(acc)))
            if s > 1e100 or s < 1e-100:
                acc /= s
                log_scale += math.log(s)
    s = float(np.max(np.abs(acc)))
    if log_scale != 0.0:
        acc /= s
        log_scale += math.log(s)
    return Sl2Mat(acc, log_scale)


def _transfer_grid(c: QpCocycle, thetas: np.ndarray, n: int):
    """Vectorized n-step products over a theta grid; returns (mats, log_scales)."""
    G = thetas.size
    acc = np.broadcast_to(np.eye(2), (G, 2, 2)).copy()
    log_scale = np.zeros(G)
    for j in range(n):
        vals = c.fiber(np.mod(thetas + j * c.alpha, 1.0))
        acc = vals @ acc
        if (j + 1) % RESCALE_EVERY == 0:
            s = np.max(np.abs(acc), axis=(1, 2))
            acc /= s[:, None, None]
            log_scale += np.log(s)
    return acc, log_scale


def finite_lyapunov(c: QpCocycle, n: int, grid: int = 128) -> float:
    """L_n = (1/n) * integral of ln ||A_n(theta)|| d theta, uniform-grid quadrature."""
    if n < 1 or grid < 64:
        raise ValueError("need n >= 1 and grid >= 64")
    th = np.arange(grid) / grid
    acc, log_scale = _transfer_grid(c, th, n)
    ln_norms = np.log(sl2.op_norm(acc)) + log_scale
    return float(np.mean(ln_norms)) / n


def lyapunov_det_drift(c: QpCocycle, n: int, grid: int = 64, block: int = 4) -> float:
    """Accumulated determinant drift of the length-n product, block-resolved.

    The determinant is exactly multiplicative across blocks, so the total
    arithmetic drift is the sum of per-block |ln det| values; blocks are kept
    short enough that each block product is well-conditioned and its
    determinant is computable at float precision.
    """
    th = np.arange(grid) / grid
    drift = np.zeros(grid)
    for start in range(0, n, block):
        acc = np.broadcast_to(np.eye(2), (grid, 2, 2)).copy()
        for j in range(start, min(start + block, n)):
            acc = c.fiber(np.mod(th + j * c.alpha, 1.0)) @ acc
        drift += np.abs(np.log(np.abs(sl2.det2(acc))))
    return float(np.max(drift))


def rotation_number(
    c: QpCocycle,
    n: int = 200_000,
    theta0: float = 0.0,
    y0: float = 0.3,
    check_homotopy: bool = True,
) -> dict:
    """Fibered rotation number from a single projective orbit.

    Works on the projective circle (directions mod pi), where the angle
    advance of R_rho is 2*rho per step; the estimate is therefore a
    representative of rho mod 1/2, reported in [0, 1/2).  Increments are
    unwrapped against a slowly adapting running reference so that orbits
    whose advance sits near the wrap point are not folded.

    Returns {"rho", "error_bar", "history"}; error_bar is the maximal
    fluctuation of the partial averages over the last decade of the orbit.
    """
    if check_homotopy:
        w = c.winding()
        if w != 0:
            raise WindingError(f"fiber has winding {w}, not homotopic to identity")
    alpha = c.alpha
    # projective coordinate: phi in [0,1) represents direction angle pi*phi
    phi = float(y0) % 1.0
    vec = np.array([math.cos(math.pi * phi), math.sin(math.pi * phi)])
    th = theta0
    total = 0.0
    ref = None
    checkpoints = []
    block = c.fiber
    batch = 4096
    j = 0
    while j < n:
        m = min(batch, n - j)
        thetas = np.mod(th + alpha * np.arange(m), 1.0)
        mats = block(thetas)
        for i in range(m):
            new = mats[i] @ vec
            nrm = math.hypot(new[0], new[1])
            new /= nrm
            ang_old = math.atan2(vec[1], vec[0]) / math.pi
            ang_new = math.atan2(new[1], new[0]) / math.pi
            raw = (ang_new - ang_old) % 1.0  # projective advance in [0,1)
            if ref is None:
                d = raw if raw <= 0.5 else raw - 1.0
                ref = d
            else:
                d = raw + math.floor(ref - raw + 0.5)
                ref = 0.995 * ref + 0.005 * d
            total += d
            vec = new
            j += 1
            if j >= n // 10 and (j & (j - 1)) == 0 or j == n:
                checkpoints.append((j, total / j))
        th = (th + alpha * m) % 1.0
    avg = total / n
    tail = [abs(v - avg) for (jj, v) in checkpoints if jj >= n // 10]
    err = max(tail) if tail else 0.0
    rho = (avg / 2.0) % 0.5
    return {"rho": rho, "error_bar": err / 2.0, "history": checkpoints}


def rho_dist(a: float, b: float) -> float:
    """Distance between rotation numbers on the half-circle R/(1/2)Z."""
    d = (a - b) % 0.5
    return min(d, 0.5 - d)


def renorm_iterates(c: QpCocycle, cf: CfExpansion, n: int, theta_star: float = 0.0) -> dict:
    """Rescaled renormalization iterates at level n.

    Both maps live on [0, 1/beta_{n-1}] and satisfy the commutation identity
    A1(x+1) A0(x) = A0(x+alpha_n) A1(x) on the rescaled line.
    """
    if n < 1 or n > cf.depth():
        raise IndexError("level outside the computed expansion")
    beta = cf.beta[n - 1]
    if beta <= 0 or not math.isfinite(cf.log_beta[n - 1]) or beta < 1e-300:
        raise OverflowError("beta_{n-1} underflows; level too deep for float rescaling")
    alpha_n = cf.alpha_tail[n - 1]
    q_prev = cf.q[n - 1]
    q_cur = cf.q[n]
    sgn0 = 1 if (n - 1) % 2 == 0 else -1  # (-1)^(n-1)
    sgn1 = -sgn0

    def a0(x):
        pts = theta_star + beta * (np.atleast_1d(np.asarray(x, dtype=float)) - theta_star)
        return np.stack([transfer(c, float(p), sgn0 * q_prev).plain() for p in pts])

    def a1(x):
        pts = theta_star + beta * (np.atleast_1d(np.asarray(x, dtype=float)) - theta_star)
        return np.stack([transfer(c, float(p), sgn1 * q_cur).plain() for p in pts])

    return {"A_n0": a0, "A_n1": a1, "alpha_n": alpha_n, "period": 1.0 / beta}


def commutation_residual(it: dict, xs: np.ndarray) -> float:
    """Relative residual of A1(x+1) A0(x) - A0(x+alpha_n) A1(x) on sample points."""
    a0, a1, an = it["A_n0"], it["A_n1"], it["alpha_n"]
    lhs = a1(xs + 1.0) @ a0(xs)
    rhs = a0(xs + an) @ a1(xs)
    num = np.max(sl2.frob(lhs - rhs))
    den = max(np.max(sl2.frob(lhs)), 1.0)
    return float(num / den)


def cocycle_property_residual(c: QpCocycle, theta: float, m: int, n: int) -> float:
    """Relative residual of A_{m+n}(theta) = A_m(theta + n alpha) A_n(theta)."""
    left = transfer(c, theta, m + n)
    am = transfer(c, (theta + n * c.alpha) % 1.0, m)
    an = transfer(c, theta, n)
    prod = am.m @ an.m
    ls = am.log_scale + an.log_scale
    # align scales before comparing
    shift = math.exp(min(ls - left.log_scale, 50.0)) if ls != left.log_scale else 1.0
    diff = np.max(np.abs(prod * shift - left.m))
    return float(diff / max(np.max(np.abs(left.m)), 1e-300))


def parse_cocycle_config(cfg: dict) -> QpCocycle:
    """JSON declaration {alpha, fiber: {schrodinger: {V, E}} | {amo: {...}} | {matseries: ...}}."""
    alpha = float(cfg["alpha"])
    fib = cfg["fiber"]
    if "schrodinger" in fib:
        sub = fib["schrodinger"]
        V = FourierSeries.from_json(json.dumps(sub["V"]), real_flag=True) if isinstance(
            sub["V"], dict
        ) else FourierSeries.from_json(sub["V"], real_flag=True)
        return schrodinger(V, float(sub["E"]), alpha)
    if "amo" in fib:
        sub = fib["amo"]
        return amo(float(sub["lambda"]), float(sub["E"]), alpha)
    if "rotation" in fib:
        return rotation_cocycle(alpha, float(fib["rotation"]["rho"]))
    if "matseries" in fib:
        d = fib["matseries"]
        K = int(d["K"])
        co = (np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)).reshape(
            2, 2, 2 * K + 1
        )
        return QpCocycle.from_series(alpha, FourierSeries(co, True), label="matseries")
    raise ValueError("unrecognized fiber declaration")
