"""Vectorized 2x2 real/complex matrix kernels.

Everything here operates on arrays of shape (..., 2, 2) so that grids of
matrices can be processed without Python loops.  The exp/log routines use the
closed forms available for traceless 2x2 matrices (X^2 = -det(X) * I), which
is both faster and more accurate than general-purpose expm/logm.
"""

from __future__ import annotations

import math

import numpy as np

IDENT = np.eye(2)
J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def mat(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=float)


def rot(g):
    """R_g = exp(-2*pi*g*J), counterclockwise rotation by angle 2*pi*g.

    `g` may be a scalar or an array; the result has shape g.shape + (2, 2).
    """
    g = np.asarray(g, dtype=float)
    c, s = np.cos(2 * np.pi * g), np.sin(2 * np.pi * g)
    out = np.empty(g.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def schrodinger_fiber(v, E) -> np.ndarray:
    """Schrodinger fibers [[E - v, -1], [1, 0]] for potential values v and energies E.

    v and E broadcast against each other; the result has their shape + (2, 2).
    """
    d = E - v
    out = np.zeros(np.shape(d) + (2, 2))
    out[..., 0, 0] = d
    out[..., 0, 1] = -1.0
    out[..., 1, 0] = 1.0
    return out


def det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def tr2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] + m[..., 1, 1]


def inv_det1(m: np.ndarray) -> np.ndarray:
    """Inverse of a determinant-1 matrix (adjugate)."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def op_norm(m: np.ndarray) -> np.ndarray:
    """Largest singular value, closed form for 2x2 real matrices."""
    f2 = np.sum(np.square(m), axis=(-2, -1))
    d = det2(m)
    gap = np.sqrt(np.maximum(f2 * f2 - 4.0 * d * d, 0.0))
    return np.sqrt(np.maximum((f2 + gap) / 2.0, 0.0))


def frob(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def _sinhc(mu2):
    """sinh(sqrt(mu2))/sqrt(mu2) for real mu2 of either sign (cos branch if < 0)."""
    mu2 = np.asarray(mu2)
    small = np.abs(mu2) < 1e-12
    safe = np.where(small, 1.0, mu2)
    pos = mu2 > 0
    root = np.sqrt(np.abs(safe))
    with np.errstate(invalid="ignore"):
        val = np.where(pos, np.sinh(root) / root, np.sin(root) / root)
    # series: 1 + mu2/6 + mu2^2/120
    return np.where(small, 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0, val)


def _cosh_branch(mu2):
    mu2 = np.asarray(mu2)
    root = np.sqrt(np.abs(mu2))
    return np.where(mu2 >= 0, np.cosh(root), np.cos(root))


def sl2_exp(x: np.ndarray) -> np.ndarray:
    """exp of traceless 2x2 (arrays ok): exp(X) = cosh(mu) I + sinhc(mu^2) X.

    mu^2 = -det X; works for sl(2,R) (real) and for complex traceless input.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        mu2 = -det2(x)
        mu = np.sqrt(mu2 + 0j)
        small = np.abs(mu2) < 1e-12
        safe = np.where(small, 1.0, mu)
        sc = np.where(small, 1.0 + mu2 / 6.0, np.sinh(safe) / safe)
        ch = np.where(small, 1.0 + mu2 / 2.0, np.cosh(mu))
        return ch[..., None, None] * np.eye(2) + sc[..., None, None] * x
    mu2 = -det2(x)
    ch = _cosh_branch(mu2)
    sc = _sinhc(mu2)
    return ch[..., None, None] * IDENT + sc[..., None, None] * x


def _log_factor(w):
    """f(w) with log(P) = (P - w I) * f(w) for det-1 P, w = tr(P)/2.

    f(w) = phi/sin(phi) with phi = arccos(w) on |w|<=1, arccosh(w)/sinh on w>1.
    Stable series near w=1.  w <= -1 is outside the principal branch.
    """
    w = np.asarray(w, dtype=float)
    d = w - 1.0
    small = np.abs(d) < 1e-8
    wc = np.clip(w, -1.0 + 1e-300, None)
    out = np.empty_like(w)
    ell = w > 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arccos(np.clip(wc, -1.0, 1.0))
        sphi = np.sin(phi)
        f_ell = np.where(sphi > 0, phi / np.where(sphi > 0, sphi, 1.0), np.inf)
        mu = np.arccosh(np.where(ell, w, 1.0))
        smu = np.sinh(mu)
        f_hyp = np.where(smu > 0, mu / np.where(smu > 0, smu, 1.0), 1.0)
    out = np.where(ell, f_hyp, f_ell)
    # f(1+d) = 1 - d/3 + 2 d^2/15 + O(d^3)
    return np.where(small, 1.0 - d / 3.0 + 2.0 * d * d / 15.0, out)


def sl2_log(p: np.ndarray) -> np.ndarray:
    """Principal log of det-1 real 2x2 matrices with tr(P) > -2."""
    p = np.asarray(p, dtype=float)
    w = tr2(p) / 2.0
    if np.any(w <= -1.0):
        raise ValueError("matrix log: trace at or below -2, off the principal branch")
    f = _log_factor(w)
    return (p - w[..., None, None] * IDENT) * f[..., None, None]


def sl2_log_dev(dev: np.ndarray) -> np.ndarray:
    """log(I + dev) for det-1 (I + dev), written entirely in the deviation.

    Avoids the O(1) cancellation of forming P - w I from P itself, so the
    result keeps relative accuracy when ||dev|| is tiny.
    """
    dev = np.asarray(dev)
    w1 = tr2(dev) / 2.0  # w - 1
    f = _log_factor(1.0 + np.real(w1)) if np.iscomplexobj(dev) else _log_factor(1.0 + w1)
    return (dev - w1[..., None, None] * np.eye(2)) * f[..., None, None]


def sl2_expm1(x: np.ndarray) -> np.ndarray:
    """exp(X) - I for traceless X, computed without forming exp(X)."""
    x = np.asarray(x)
    mu2 = -det2(x)
    if np.iscomplexobj(x):
        mu = np.sqrt(mu2 + 0j)
        small = np.abs(mu2) < 1e-12
        safe = np.where(small, 1.0, mu)
        sc = np.where(small, 1.0 + mu2 / 6.0, np.sinh(safe) / safe)
        chm1 = np.where(small, mu2 / 2.0 * (1.0 + mu2 / 12.0), np.cosh(mu) - 1.0)
        return chm1[..., None, None] * np.eye(2) + sc[..., None, None] * x
    sc = _sinhc(mu2)
    root = np.sqrt(np.abs(mu2))
    # cosh(mu)-1 = 2 sinh^2(mu/2); cos branch: cos(mu)-1 = -2 sin^2(mu/2)
    chm1 = np.where(mu2 >= 0, 2.0 * np.sinh(root / 2.0) ** 2, -2.0 * np.sin(root / 2.0) ** 2)
    return chm1[..., None, None] * IDENT + sc[..., None, None] * x


def safe_log_int(n: int) -> float:
    """log of a positive python int of arbitrary size."""
    if n <= 0:
        raise ValueError("safe_log_int needs a positive integer")
    bits = n.bit_length()
    if bits <= 512:
        return math.log(n)
    shift = bits - 53
    return math.log(n >> shift) + shift * math.log(2.0)


def _pow_cmp(base: int, expo: float, bound: int, rtol: float = 1e-12) -> int:
    """Sign of base**expo - bound for positive ints; 0 when numerically tied.

    Exact integer arithmetic is used when `expo` is a small integer, so the
    boundary cases that show up in tests (e.g. 2**3 vs 8) are decided exactly.
    """
    if base <= 0 or bound <= 0:
        raise ValueError("positive integers required")
    if base == 1:
        return 0 if bound == 1 else -1
    if float(expo).is_integer() and expo <= 64 and base.bit_length() * expo <= 4096:
        val = base ** int(expo)
        return (val > bound) - (val < bound)
    lhs = expo * safe_log_int(base)
    rhs = safe_log_int(bound)
    if abs(lhs - rhs) <= rtol * max(1.0, abs(rhs)):
        return 0
    return 1 if lhs > rhs else -1


def pow_leq(base: int, expo: float, bound: int) -> bool:
    """base**expo <= bound (boundary ties count as equal)."""
    return _pow_cmp(base, expo, bound) <= 0


def pow_geq(base: int, expo: float, bound: int) -> bool:
    """base**expo >= bound (boundary ties count as equal)."""
    return _pow_cmp(base, expo, bound) >= 0
