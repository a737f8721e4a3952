"""Ultra-differentiable Fourier calculus.

Modulus sequences M_s with their weight functions, the two norms attached to
a modulus, truncation with certified tail bounds, and the band-limited
series algebra (scalar and 2x2) used by every other module.

Numerical conventions:
  * all norms and weights are evaluated in log domain internally; r^s / M_s
    overflows doubles almost immediately otherwise;
  * the C^0 norm of D^s f is replaced by the coefficient-sum surrogate
    N_s(f) = sum_k |fhat(k)| |2 pi k|^s, an upper bound that is exact for
    single harmonics.  Every inequality asserted downstream is valid for the
    surrogate by the same convexity arguments as for the sup norm.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import sl2

C_NORM = 4.0 * math.pi**2 / 3.0


class AliasingError(Exception):
    """Declared output bandwidth cannot hold the result's spectral mass."""


class ScanCapExceeded(Exception):
    """Weight-function scan never turned over; modulus is likely invalid."""


# ---------------------------------------------------------------------------
# modulus sequences
# ---------------------------------------------------------------------------


@dataclass
class Modulus:
    """A positive sequence M_s given through its log generator.

    kinds:
      analytic      ln M_s = ln s!
      gevrey(nu)    ln M_s = ln s! / nu            (0 < nu <= 1)
      power(delta)  ln M_s = (delta-1) (s/delta)^(delta/(delta-1))
      custom        caller-supplied generator, linear scans only

    The power generator is the convex dual of y -> (ln y)^delta, so that
    Lambda(y) ~ (ln y)^delta with constant 1 (the plain s^(delta/(delta-1))
    generator produces the same class but a different constant).
    """

    kind: str
    param: float = 0.0
    generator: Optional[Callable[[float], float]] = None
    _cm_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind == "analytic":
            self.generator = lambda s: math.lgamma(s + 1.0)
        elif self.kind == "gevrey":
            if not 0 < self.param <= 1:
                raise ValueError("gevrey needs nu in (0, 1]")
            nu = self.param
            self.generator = lambda s: math.lgamma(s + 1.0) / nu
        elif self.kind == "power":
            if self.param <= 2:
                raise ValueError("power modulus needs delta > 2")
            d = self.param
            e = d / (d - 1.0)
            self.generator = lambda s: (d - 1.0) * (s / d) ** e if s > 0 else 0.0
        elif self.kind == "custom":
            if self.generator is None:
                raise ValueError("custom modulus needs a generator")
        else:
            raise ValueError(f"unknown modulus kind {self.kind!r}")

    def log_m(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        gen = self.generator
        return np.vectorize(gen, otypes=[float])(s) if s.ndim else float(gen(float(s)))

    def log_m_inc(self, s: float) -> float:
        """ln M_{s+1} - ln M_s, in a form stable at astronomically large s."""
        if self.kind == "analytic":
            return math.log(s + 1.0)
        if self.kind == "gevrey":
            return math.log(s + 1.0) / self.param
        if self.kind == "power":
            d = self.param
            e = d / (d - 1.0)
            if s == 0.0:
                return (d - 1.0) * (1.0 / d) ** e
            return (d - 1.0) * (s / d) ** e * math.expm1(e * math.log1p(1.0 / s))
        return float(self.generator(s + 1.0) - self.generator(s))

    # -- derived constants ---------------------------------------------------

    def _sup_ratio(self, gap: int, s_cap: int = 400) -> float:
        """sup_s 2^{-s} M_{s+gap} / M_s, with a stabilization check."""
        key = ("ratio", gap, s_cap)
        if key in self._cm_cache:
            return self._cm_cache[key]
        s = np.arange(s_cap + 1, dtype=float)
        vals = self.log_m(s + gap) - self.log_m(s) - s * math.log(2.0)
        best = float(np.max(vals))
        if int(np.argmax(vals)) > s_cap - 10:
            raise ScanCapExceeded(f"C_M/c_M supremum did not stabilize below s={s_cap}")
        out = math.exp(best)
        self._cm_cache[key] = out
        return out

    @property
    def C_M(self) -> float:
        """sup_s 2^{-s} M_{s+1}/M_s (Cauchy-estimate constant)."""
        return self._sup_ratio(1)

    @property
    def c_M(self) -> float:
        """sup_s 2^{-s} M_{s+2}/M_s (norm-comparison constant)."""
        return self._sup_ratio(2)

    def check_h1_h2(self, s_max: int = 200) -> dict:
        """Sampled log-convexity (strict) and sub-exponential growth."""
        s = np.arange(s_max + 1, dtype=float)
        lm = self.log_m(s)
        inc = np.diff(lm)  # ln M_{s+1} - ln M_s, must be increasing (H1)
        h1 = bool(np.all(np.diff(inc) > -1e-12)) and bool(np.all(inc[1:] - inc[:-1] >= -1e-12))
        strict = bool(np.all(np.diff(inc)[5:] > 0))
        ratio = inc[1:] / np.arange(1, s_max, dtype=float)
        tail = ratio[s_max // 2 :]
        h2 = bool(np.all(np.diff(tail) <= 1e-12)) and tail[-1] < tail[0] + 1e-12
        return {"H1": h1 and strict, "H2": h2}

    def to_config(self) -> dict:
        return {"kind": self.kind, "param": self.param}

    @classmethod
    def from_config(cls, cfg: dict) -> "Modulus":
        return cls(kind=cfg["kind"], param=cfg.get("param", 0.0))


def _argmax_s(M: Modulus, ln_y: float, cap: int = 10**6) -> int:
    """argmax over integer s >= 0 of s*ln_y - ln M_s.

    By (H1) the increments ln M_{s+1} - ln M_s increase, so the argmax is the
    smallest s with that increment >= ln_y.  Closed-form kinds use doubling +
    bisection (valid at astronomically large s); custom kinds scan linearly
    under the cap.
    """
    if ln_y <= 0:
        return 0
    inc = M.log_m_inc

    if M.kind == "custom":
        prev = 0.0
        best_s, best_v = 0, 0.0
        drops = 0
        v = 0.0
        for s in range(cap):
            v += ln_y - inc(float(s))
            if v > best_v:
                best_s, best_v, drops = s + 1, v, 0
            else:
                drops += 1
                if drops >= 2:
                    return best_s
        raise ScanCapExceeded("objective never turned over within the scan cap")

    if inc(0.0) >= ln_y:
        return 0
    hi = 1
    while inc(float(hi)) < ln_y:
        hi *= 2
        if hi > 1e40:
            raise ScanCapExceeded("argmax search exceeded 1e40 terms")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if inc(float(mid)) < ln_y:
            lo = mid
        else:
            hi = mid
    return hi


def lambda_of(M: Modulus, y: float) -> tuple[float, int]:
    """Weight Lambda(y) = sup_s (s ln y - ln M_s) and its argmax.

    Zero for y <= 1.  Accepts y as a float or, for very large arguments, the
    caller can use `lambda_of_log` directly.
    """
    if y < 0:
        raise ValueError("y must be >= 0")
    if y <= 1.0:
        return 0.0, 0
    return lambda_of_log(M, math.log(y))


def lambda_of_log(M: Modulus, ln_y: float) -> tuple[float, int]:
    if ln_y <= 0:
        return 0.0, 0
    s = _argmax_s(M, ln_y)
    val = s * ln_y - float(M.log_m(float(s)))
    # guard against off-by-one at the discrete maximum
    for t in (s - 1, s + 1):
        if t >= 0:
            v = t * ln_y - float(M.log_m(float(t)))
            if v > val:
                val, s = v, t
    return max(val, 0.0), s


def lambda_many(M: Modulus, ys: np.ndarray) -> np.ndarray:
    """Vectorized Lambda over an array of nonnegative arguments."""
    out = np.zeros_like(np.asarray(ys, dtype=float))
    flat = out.ravel()
    yf = np.asarray(ys, dtype=float).ravel()
    for i, y in enumerate(yf):
        if y > 1.0:
            flat[i] = lambda_of_log(M, math.log(y))[0]
    return out


def gamma_of(M: Modulus, x: float) -> float:
    """Gamma(x) = s(x)/ln(x) where s(x) is Lambda's argmax; needs x > 1."""
    if x <= 1.0:
        raise ValueError("Gamma is defined for x > 1")
    _, s = lambda_of_log(M, math.log(x))
    return s / math.log(x)


def gamma_of_log(M: Modulus, ln_x: float) -> float:
    if ln_x <= 0:
        raise ValueError("Gamma is defined for x > 1")
    return _argmax_s(M, ln_x) / ln_x


def gamma_of_log_sat(M: Modulus, ln_x: float) -> float:
    """Gamma at possibly huge arguments, saturating to +inf past float range.

    Deep KAM schedules evaluate Gamma at doubly-exponential points where the
    argmax itself overflows doubles; the schedule then saturates rather than
    erroring.
    """
    if ln_x <= 0:
        raise ValueError("Gamma is defined for x > 1")
    try:
        return _argmax_s(M, ln_x) / ln_x
    except ScanCapExceeded:
        if M.kind == "custom":
            raise
        return math.inf


def condition_a_check(
    M: Modulus,
    x_lo: float = 2.0,
    x_hi: float = 1e4,
    grid: int = 64,
    pairs: int = 1000,
    seed: int = 7,
) -> dict:
    """Sampled check of the three-part growth/monotonicity condition on Gamma.

    (I)   Gamma(x) -> infinity: the running max over a log grid must keep
          growing and the tail must dominate the head.
    (II)  Gamma(x) ln x = s(x) non-decreasing (checked exactly on the grid).
    (III) Lambda(y) - Lambda(x) >= (ln y - ln x) Gamma(x) ln x for random
          pairs y > x >= 1.
    """
    xs = np.exp(np.linspace(math.log(x_lo), math.log(x_hi), grid))
    svals = np.array([lambda_of_log(M, math.log(x))[1] for x in xs], dtype=float)
    gvals = svals / np.log(xs)
    ii = bool(np.all(np.diff(svals) >= 0))
    i_ok = gvals[-1] > 2.0 * max(gvals[0], 1.0) and svals[-1] > svals[0]
    rng = np.random.default_rng(seed)
    iii_ok = True
    worst = math.inf
    for _ in range(pairs):
        lx, ly = sorted(rng.uniform(0.0, math.log(x_hi), size=2))
        if ly - lx < 1e-9:
            continue
        lam_x, s_x = lambda_of_log(M, lx)
        lam_y, _ = lambda_of_log(M, ly)
        slack = (lam_y - lam_x) - (ly - lx) * s_x
        worst = min(worst, slack)
        if slack < -1e-9 * max(1.0, abs(lam_y)):
            iii_ok = False
    return {"I": bool(i_ok), "II": ii, "III": iii_ok, "worst_iii_slack": worst}


def _cleared_from(M: Modulus, level: float, max_samples: int = 20000) -> float:
    """ln of a certified point past which Gamma stays above `level`.

    Gamma(x) = s(x)/ln(x) decreases between the integer jumps of s, so the
    cell [x, 1.05x] is certified by the conservative value s(x)/ln(1.05x).
    The walk stops once the conservative value has stayed above the level
    for a long stretch with a factor-2 margin.
    """
    step = math.log(1.05)
    lx = 0.05
    last = 0.05
    above_run = 0
    for _ in range(max_samples):
        g_cons = _argmax_s(M, lx) / (lx + step)
        if g_cons <= level:
            last = lx
            above_run = 0
        else:
            above_run += 1
            if g_cons >= 2.0 * level and above_run >= 50:
                return last + step
        lx += step
    raise ScanCapExceeded("Gamma never cleared the requested level in range")


def t1_of(M: Modulus) -> float:
    """Smallest T1 so that Kr >= T1 certifies the truncation tail bounds.

    Requirements from the tail estimates: Gamma(4Kr) > 18 and, for the C^0
    variant, Gamma(pi*Kr) > 3; T1 is read off the certified clearance points
    of Gamma.
    """
    x18 = math.exp(_cleared_from(M, 18.0))
    x3 = math.exp(_cleared_from(M, 3.0))
    return max(x18 / 4.0, x3 / math.pi) * (1 + 1e-9)


def t_tilde_of(M: Modulus, A: float, tau: float) -> float:
    """ln of the threshold where Gamma >= 64 A^8 tau^4 and Lambda(x) >= ln x.

    Returned in log domain; for the moduli of interest the threshold itself
    overflows floats long before the schedule needs it.
    """
    level = 64.0 * A**8 * tau**4
    lo, hi = 1e-3, 2.0
    while _argmax_s(M, hi) / hi < level:
        hi *= 2
        if hi > 1e200:
            raise ScanCapExceeded("T-tilde search diverged")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _argmax_s(M, mid) / mid >= level:
            hi = mid
        else:
            lo = mid
    ln_t = hi
    # walk forward a little to make sure we are past the last crossing
    step = ln_t * 1e-3
    while _argmax_s(M, ln_t) / ln_t < level:
        ln_t += step
    # Lambda(x) >= ln x is implied far earlier for any admissible modulus
    lam, _ = lambda_of_log(M, ln_t)
    if lam < ln_t:
        raise ScanCapExceeded("Lambda(x) < ln x at the Gamma threshold")
    return ln_t


# ---------------------------------------------------------------------------
# band-limited Fourier series
# ---------------------------------------------------------------------------


def _grid_size(K: int) -> int:
    g = 8
    while g < 4 * max(K, 1):
        g *= 2
    return g


@dataclass
class FourierSeries:
    """Finitely supported Fourier coefficients of a 1-periodic map.

    coeffs has shape (2K+1,) for a scalar series and (2, 2, 2K+1) for a 2x2
    matrix-valued one; coeffs[..., j] is the coefficient of exp(2 pi i k theta)
    with k = j - K, j = 0..2K.  Every operation acts along that last axis, and
    grid and point values put the theta axes first.  real_flag marks series
    representing real-valued maps (coefficients then satisfy
    fhat(-k) = conj(fhat(k)) up to rounding).
    """

    coeffs: np.ndarray
    real_flag: bool = False

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        shape = self.coeffs.shape
        if not shape or shape[:-1] not in ((), (2, 2)) or shape[-1] % 2 != 1:
            raise ValueError("coeffs must have shape (2K+1,) or (2, 2, 2K+1)")

    @property
    def K(self) -> int:
        return self.coeffs.shape[-1] // 2

    def c(self, k: int):
        """Coefficient of exp(2 pi i k theta); a 2x2 array for a matrix series."""
        if abs(k) > self.K:
            return np.zeros(self.coeffs.shape[:-1], dtype=complex)[()]
        return self.coeffs[..., k + self.K][()]

    @classmethod
    def zero(cls, K: int = 0, real_flag: bool = True) -> "FourierSeries":
        return cls(np.zeros(2 * K + 1, dtype=complex), real_flag)

    @classmethod
    def constant(cls, value, real_flag=None) -> "FourierSeries":
        """The constant map with a scalar or 2x2 value."""
        c = np.asarray(value, dtype=complex)[..., None]
        flag = not np.any(c.imag) if real_flag is None else real_flag
        return cls(c, flag)

    @classmethod
    def from_dict(cls, d: dict, real_flag: bool = False) -> "FourierSeries":
        """Coefficients given as {k: value}."""
        K = max(abs(int(k)) for k in d) if d else 0
        c = np.zeros(2 * K + 1, dtype=complex)
        for k, v in d.items():
            c[int(k) + K] = v
        return cls(c, real_flag)

    @classmethod
    def cosine(cls, amp: float = 1.0, harmonic: int = 1) -> "FourierSeries":
        """amp * cos(2 pi harmonic theta)."""
        d = {harmonic: amp / 2.0, -harmonic: amp / 2.0}
        return cls.from_dict(d, real_flag=True)

    @classmethod
    def from_entries(cls, e11, e12, e21, e22) -> "FourierSeries":
        """The 2x2 series [[e11, e12], [e21, e22]] from four scalar series."""
        K = max(x.K for x in (e11, e12, e21, e22))
        parts = [x.pad_to(K).coeffs for x in (e11, e12, e21, e22)]
        c = np.array([[parts[0], parts[1]], [parts[2], parts[3]]])
        flag = all(x.real_flag for x in (e11, e12, e21, e22))
        return cls(c, flag)

    def entry(self, i: int, j: int) -> "FourierSeries":
        return FourierSeries(self.coeffs[i, j].copy(), self.real_flag)

    def ks(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def __call__(self, theta):
        """Values at the points theta, shape theta.shape (+ (2, 2))."""
        theta = np.asarray(theta, dtype=float)
        ph = np.exp(2j * np.pi * np.outer(theta.ravel(), self.ks()))
        c = self.coeffs
        # a 2x2 series takes one column of coefficients per entry; a scalar one
        # stays a plain matrix-vector product, the cheapest form per call
        cols = c if c.ndim == 1 else c.reshape(4, -1).T
        vals = (ph @ cols).reshape(theta.shape + c.shape[:-1])
        return np.real(vals) if self.real_flag else vals

    def values(self, G: Optional[int] = None) -> np.ndarray:
        """Values on the uniform grid theta_j = j/G via the inverse DFT, shape (G,) (+ (2, 2))."""
        G = G or _grid_size(self.K)
        if G <= 2 * self.K:
            raise ValueError("grid must exceed twice the bandwidth")
        spec = np.zeros(self.coeffs.shape[:-1] + (G,), dtype=complex)
        spec[..., self.ks() % G] = self.coeffs
        vals = np.moveaxis(np.fft.ifft(spec, axis=-1) * G, -1, 0)
        return np.real(vals) if self.real_flag else vals

    @classmethod
    def from_values(cls, vals: np.ndarray, K: int, real_flag: bool = False,
                    tail_tol: Optional[float] = 1e-13) -> "FourierSeries":
        """DFT of grid values (theta axis first), truncated to bandwidth K with a mass check."""
        vals = np.moveaxis(np.asarray(vals), 0, -1)
        G = vals.shape[-1]
        spec = np.fft.fft(vals, axis=-1) / G
        ks = np.arange(-(G // 2), (G + 1) // 2)
        full = spec[..., ks % G]
        inside = np.abs(ks) <= K
        if tail_tol is not None:
            total = float(np.sum(np.abs(full)))
            outside = float(np.sum(np.abs(full[..., ~inside])))
            if total > 0 and outside > tail_tol * total:
                raise AliasingError(
                    f"tail mass {outside:.3e} exceeds {tail_tol:.0e} of total {total:.3e}"
                )
        c = np.zeros(vals.shape[:-1] + (2 * K + 1,), dtype=complex)
        c[..., ks[inside] + K] = full[..., inside]
        return cls(c, real_flag)

    # -- algebra -------------------------------------------------------------

    def pad_to(self, K: int) -> "FourierSeries":
        if K < self.K:
            raise ValueError("pad_to cannot shrink; use truncate")
        c = np.zeros(self.coeffs.shape[:-1] + (2 * K + 1,), dtype=complex)
        c[..., K - self.K : K + self.K + 1] = self.coeffs
        return FourierSeries(c, self.real_flag)

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        K = max(self.K, other.K)
        return FourierSeries(
            self.pad_to(K).coeffs + other.pad_to(K).coeffs, self.real_flag and other.real_flag
        )

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "FourierSeries":
        flag = self.real_flag and (complex(scalar).imag == 0)
        return FourierSeries(self.coeffs * scalar, flag)

    __rmul__ = __mul__

    def mul(self, other: "FourierSeries", out_K: Optional[int] = None) -> "FourierSeries":
        """Product of scalar series via full linear convolution, then optional re-truncation."""
        conv = np.convolve(self.coeffs, other.coeffs)
        full = FourierSeries(conv, self.real_flag and other.real_flag)
        if out_K is None or out_K >= full.K:
            return full
        return full.truncate(out_K, tail_tol=1e-13)

    def truncate(self, K: int, tail_tol: Optional[float] = None) -> "FourierSeries":
        if K >= self.K:
            return self
        kept = self.coeffs[..., self.K - K : self.K + K + 1]
        lost = float(np.sum(np.abs(self.coeffs))) - float(np.sum(np.abs(kept)))
        if tail_tol is not None:
            total = float(np.sum(np.abs(self.coeffs)))
            if total > 0 and lost > tail_tol * total:
                raise AliasingError(f"truncation would drop {lost:.3e} of mass {total:.3e}")
        return FourierSeries(kept, self.real_flag)

    def derive(self) -> "FourierSeries":
        return FourierSeries(self.coeffs * (2j * np.pi * self.ks()), self.real_flag)

    def reciprocal(self, out_K: Optional[int] = None,
                   tail_tol: Optional[float] = 1e-13) -> "FourierSeries":
        """Pointwise 1/f of a scalar series via the grid; f must be bounded away from zero."""
        out_K = out_K if out_K is not None else self.K
        G = _grid_size(max(out_K, 4 * self.K, 4))
        vals = self.values(G)
        if np.min(np.abs(vals)) < 1e-13:
            raise ValueError("reciprocal of a series vanishing on the grid")
        return FourierSeries.from_values(1.0 / vals, out_K, self.real_flag, tail_tol)

    def shift(self, beta: float) -> "FourierSeries":
        """f(theta + beta): exact phase rotation of the coefficients."""
        return FourierSeries(self.coeffs * np.exp(2j * np.pi * self.ks() * beta), self.real_flag)

    def conj_series(self) -> "FourierSeries":
        return FourierSeries(np.conj(self.coeffs[..., ::-1]), self.real_flag)

    def mean(self):
        v = self.c(0)
        return v.real if self.real_flag else v

    def l1(self) -> float:
        """Sum of all coefficient magnitudes; bounds the sup norm of every entry."""
        return float(np.sum(np.abs(self.coeffs)))

    def sup_grid(self, G: Optional[int] = None) -> float:
        """Grid max of |f|; of the operator norm (real) or Frobenius norm for a 2x2 series."""
        vals = self.values(G)
        if self.coeffs.ndim == 1:
            return float(np.max(np.abs(vals)))
        return float(np.max(sl2.op_norm(vals) if self.real_flag else sl2.frob(vals)))

    def check_real(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coeffs - np.conj(self.coeffs[..., ::-1]))) <= tol * max(1.0, self.l1()))

    def to_json(self) -> str:
        return json.dumps(
            {"K": self.K, "re": np.real(self.coeffs).tolist(), "im": np.imag(self.coeffs).tolist()}
        )

    @classmethod
    def from_json(cls, s: str, real_flag: bool = False) -> "FourierSeries":
        d = json.loads(s)
        return cls(np.array(d["re"]) + 1j * np.array(d["im"]), real_flag)

    # -- 2x2 series ----------------------------------------------------------

    def mat_mul(self, other: "FourierSeries", out_K: Optional[int] = None,
                tail_tol: Optional[float] = 1e-13) -> "FourierSeries":
        """Pointwise matrix product via the evaluation grid."""
        out_K = out_K if out_K is not None else self.K + other.K
        G = _grid_size(out_K)
        a = self.values(G)
        b = other.values(G)
        return FourierSeries.from_values(a @ b, out_K, self.real_flag and other.real_flag, tail_tol)

    def inv_det1(self) -> "FourierSeries":
        """Pointwise inverse assuming det = 1 (adjugate, exact on coefficients)."""
        adj = sl2.inv_det1(np.moveaxis(self.coeffs, -1, 0))
        return FourierSeries(np.moveaxis(adj, 0, -1), self.real_flag)

    def exp_map(self, out_K: Optional[int] = None, tail_tol: Optional[float] = 1e-13) -> "FourierSeries":
        """exp of an sl(2)-valued series, evaluated on the grid."""
        out_K = out_K if out_K is not None else self.K
        G = _grid_size(max(out_K, 2 * self.K))
        ev = sl2.sl2_exp(self.values(G))
        return FourierSeries.from_values(ev, out_K, self.real_flag, tail_tol)

    def log_map(self, out_K: Optional[int] = None, tail_tol: Optional[float] = 1e-13) -> "FourierSeries":
        """Principal log of a det-1-valued series (spectrum off the cut)."""
        out_K = out_K if out_K is not None else self.K
        G = _grid_size(max(out_K, 2 * self.K))
        lv = sl2.sl2_log(self.values(G))
        return FourierSeries.from_values(lv, out_K, self.real_flag, tail_tol)

    def det_drift(self, G: Optional[int] = None) -> float:
        vals = self.values(G)
        return float(np.max(np.abs(sl2.det2(vals) - 1.0)))


# A second name for the same type, kept because the tests and perfbench (its
# workloads and its tracer) build and look up 2x2 series under it.
MatSeries = FourierSeries


def split_truncate(f: FourierSeries, K: int) -> dict:
    """Head (|k| < K) and tail (|k| >= K); head + tail = f exactly."""
    if K < 1:
        raise ValueError("K must be >= 1")
    head = f.coeffs.copy()
    tail = f.coeffs.copy()
    inside = np.abs(f.ks()) < K
    head[..., ~inside] = 0.0
    tail[..., inside] = 0.0
    return {
        "head": FourierSeries(head, f.real_flag),
        "tail": FourierSeries(tail, f.real_flag),
    }


def rotation_series(g: FourierSeries, out_K: Optional[int] = None,
                    tail_tol: Optional[float] = 1e-13) -> FourierSeries:
    """R_{g(theta)} as a 2x2 series: rotation by angle 2 pi g(theta)."""
    out_K = out_K if out_K is not None else 4 * max(g.K, 1)
    G = _grid_size(max(out_K, 2 * g.K, 4))
    vals = np.real(g.values(G))
    return FourierSeries.from_values(sl2.rot(vals), out_K, True, tail_tol)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _log_ns(coeff_abs: np.ndarray, ks: np.ndarray, s_values: np.ndarray) -> np.ndarray:
    """log of N_s = sum_k |fhat(k)| |2 pi k|^s for each s, via logsumexp."""
    mask = coeff_abs > 0.0
    if not np.any(mask):
        return np.full(s_values.shape, -np.inf)
    la = np.log(coeff_abs[mask])
    with np.errstate(divide="ignore", invalid="ignore"):
        lk = np.log(np.abs(2.0 * np.pi * ks[mask]))
        mat = la[None, :] + np.outer(s_values, lk)
    # k = 0 contributes only at s = 0 (0^0 = 1)
    zerok = ~np.isfinite(lk)
    if np.any(zerok):
        mat[:, zerok] = -np.inf
        for i, s in enumerate(s_values):
            if s == 0.0:
                mat[i, zerok] = la[zerok]
    m = np.max(mat, axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.sum(np.exp(mat - safe[:, None]), axis=1))
    return np.where(np.isfinite(m), out, -np.inf)


def log_norm_mr_ln(f, M: Modulus, ln_r: float, s_cap: Optional[int] = None) -> float:
    """log of the modulus norm with the width given as ln(r).

    Widths deep in a KAM schedule underflow floats; everything here only
    needs ln_r.  A 2x2 series takes the entrywise max.
    """
    if s_cap is None:
        top = math.log(2.0 * math.pi * max(f.K, 1)) + ln_r
        s_star = _argmax_s(M, top) if top > 0 else 0
        s_cap = int(min(max(120, s_star + 40), 4000))
    s = np.arange(s_cap + 1, dtype=float)
    weight = math.log(C_NORM) + 2.0 * np.log1p(s) + s * ln_r
    log_m = M.log_m(s)
    out = -math.inf
    for row in np.abs(f.coeffs).reshape(-1, 2 * f.K + 1):
        obj = weight + _log_ns(row, f.ks(), s) - log_m
        best = int(np.argmax(obj))
        if best >= s_cap - 2 and np.isfinite(obj[best]):
            warnings.warn("norm supremand still increasing at s_cap", stacklevel=2)
        out = max(out, float(obj[best]))
    return out


def log_norm_mr(f, M: Modulus, r: float, s_cap: Optional[int] = None) -> float:
    """log of the modulus norm c * sup_s (1+s)^2 r^s N_s / M_s.

    A 2x2 series takes the entrywise max.  The default cap is placed past the
    predicted turnover of the supremand; a warning fires if the supremand is
    still increasing at the cap.
    """
    if r <= 0:
        raise ValueError("width r must be positive")
    return log_norm_mr_ln(f, M, math.log(r), s_cap)


def norm_mr(f, M: Modulus, r: float, s_cap: Optional[int] = None) -> float:
    v = log_norm_mr(f, M, r, s_cap)
    return math.exp(v) if v > -700 else 0.0


def norm_lambda(f: FourierSeries, M: Modulus, r: float) -> float:
    """sum_k |fhat(k)| exp(Lambda(|2 pi k| r)); exact finite sum."""
    if r <= 0:
        raise ValueError("width r must be positive")
    lam = lambda_many(M, np.abs(2.0 * np.pi * f.ks()) * r)
    return float(np.sum(np.abs(f.coeffs) * np.exp(lam)))


def log_norm_lambda(f: FourierSeries, M: Modulus, r: float) -> float:
    lam = lambda_many(M, np.abs(2.0 * np.pi * f.ks()) * r)
    mag = np.abs(f.coeffs)
    mask = mag > 0
    if not np.any(mask):
        return -math.inf
    terms = np.log(mag[mask]) + lam[mask]
    m = float(np.max(terms))
    return m + math.log(float(np.sum(np.exp(terms - m))))


def fourier_decay_ok(f: FourierSeries, M: Modulus, r: float, tol: float = 1e-9) -> bool:
    """|fhat(k)| <= ||f||_{M,r} exp(-Lambda(|2 pi k| r)) for every k in support."""
    ln_norm = log_norm_mr(f, M, r)
    lam = lambda_many(M, np.abs(2.0 * np.pi * f.ks()) * r)
    mag = np.abs(f.coeffs)
    mask = mag > 0
    return bool(np.all(np.log(mag[mask]) <= ln_norm - lam[mask] + tol))


def tail_bound_c0(f: FourierSeries, M: Modulus, r: float, K: int) -> dict:
    """Measured tail sum vs the certified bound (Kr^2)^-1 ||f|| e^{-Lambda(pi K r)}.

    Only meaningful when K*r >= T1(M); the caller checks that.
    """
    tail = split_truncate(f, K)["tail"]
    measured = tail.l1()
    lam, _ = lambda_of(M, math.pi * K * r)
    ln_bound = -math.log(K * r * r) + log_norm_mr(f, M, r) - lam
    return {"measured": measured, "log_bound": ln_bound, "ok": math.log(max(measured, 1e-320)) <= ln_bound + 1e-9}


def tail_bound_mr(f: FourierSeries, M: Modulus, r: float, K: int) -> dict:
    """Measured ||R_K f||_{M, r/2} vs C (K r^2)^-1 ||f||_{M,r} e^{-Gamma term}."""
    tail = split_truncate(f, K)["tail"]
    ln_tail = log_norm_mr(tail, M, r / 2.0)
    g = gamma_of(M, 4.0 * K * r)
    s = np.arange(0, 200, dtype=float)
    ln_c = math.log(C_NORM) + float(np.max(2.0 * np.log1p(s) + s * math.log(2.0 / 3.0))) - math.log(4.0)
    ln_bound = ln_c - math.log(K * r * r) + log_norm_mr(f, M, r) - g * math.log(4.0 * K * r) / 9.0
    return {"log_measured": ln_tail, "log_bound": ln_bound, "ok": ln_tail <= ln_bound + 1e-9}
