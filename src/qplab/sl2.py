"""Vectorized 2x2 real/complex matrix kernels.

Everything here operates on arrays of shape (..., 2, 2) so that grids of
matrices can be processed without Python loops.  The exp/log routines use the
closed forms available for traceless 2x2 matrices (X^2 = -det(X) * I), which
is both faster and more accurate than general-purpose expm/logm.

The transfer-product kernels work instead on the entry-major layout
(2, 2, ...).  `_mul` multiplies two stacks entrywise on contiguous arrays;
`cocycle`'s grid products step by it, in step order, for fibers that are not
Schrodinger-shaped.  The pairwise kernel (`_chunk_product`, `_chunk_steps`)
takes the steps of a product over P points in chunks (2, 2, m, P) of
m = `_chunk_steps(P)` steps and multiplies each chunk by pairwise
reduction; `spectra.Discriminant.block` runs on it, since its Chambers
deviations are checked at a precision the product order moves.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional

import numpy as np

IDENT = np.eye(2)
J = np.array([[0.0, 1.0], [-1.0, 0.0]])


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


_BATCH = 4096  # most matrices a chunked product holds at once
_CHUNK = 32  # most steps of one chunk


def _chunk_steps(P: int) -> int:
    """Steps per chunk of a product over P points.

    The largest power of two m <= 32 with m P <= 4096, or 1, so a chunk holds
    at most max(4096, P) matrices.
    """
    m = _CHUNK
    while m > 1 and m * P > _BATCH:
        m //= 2
    return m


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product a b of 2x2 stacks in entry-major layout, shape (2, 2, ...)."""
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]


def _chunk_product(vals: np.ndarray) -> np.ndarray:
    """vals[:, :, k-1] ... vals[:, :, 0] for entry-major stacks (2, 2, k, ...), by pairwise reduction.

    Neighbouring steps are multiplied in pairs, ceil(log2 k) calls in all; an
    odd step out is carried to the next level, so the order is kept.
    """
    while vals.shape[2] > 1:
        h = vals.shape[2] // 2
        prod = _mul(vals[:, :, 1:2 * h:2], vals[:, :, 0:2 * h:2])
        vals = prod if vals.shape[2] == 2 * h else np.concatenate([prod, vals[:, :, 2 * h:]], axis=2)
    return vals[:, :, 0]


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
    """sinh(sqrt(mu2))/sqrt(mu2) for real mu2 of either sign (sin branch if < 0).

    Each entry evaluates only its own branch: the series 1 + mu2/6 + mu2^2/120
    where |mu2| < 1e-12, sinh above and sin below.
    """
    mu2 = np.asarray(mu2)
    out = np.asarray(1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0)
    hyp, circ = mu2 >= 1e-12, mu2 <= -1e-12
    root = np.sqrt(mu2[hyp])
    out[hyp] = np.sinh(root) / root
    root = np.sqrt(-mu2[circ])
    out[circ] = np.sin(root) / root
    return out


def _cosh_branch(mu2):
    """cosh(sqrt(mu2)) for real mu2, cos(sqrt(-mu2)) below 0; each entry on its own branch."""
    mu2 = np.asarray(mu2)
    root = np.sqrt(np.abs(mu2))
    out = np.empty_like(root)
    hyp = mu2 >= 0
    out[hyp] = np.cosh(root[hyp])
    out[~hyp] = np.cos(root[~hyp])
    return out


def sl2_exp(x: np.ndarray) -> np.ndarray:
    """exp of traceless real 2x2 (arrays ok): exp(X) = cosh(mu) I + sinhc(mu^2) X, mu^2 = -det X."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise TypeError(f"sl2_exp takes real sl(2,R) grids, not {x.dtype}")
    mu2 = -det2(x)
    ch = _cosh_branch(mu2)
    sc = _sinhc(mu2)
    return ch[..., None, None] * IDENT + sc[..., None, None] * x


def _log_factor(w):
    """f(w) with log(P) = (P - w I) * f(w) for det-1 P, w = tr(P)/2.

    f(w) = phi/sin(phi) with phi = arccos(w) on |w|<=1, arccosh(w)/sinh on w>1.
    Stable series near w=1.  w <= -1 is outside the principal branch.  Each
    entry evaluates only its own branch.
    """
    w = np.asarray(w, dtype=float)
    d = w - 1.0
    # f(1+d) = 1 - d/3 + 2 d^2/15 + O(d^3)
    out = np.asarray(1.0 - d / 3.0 + 2.0 * d * d / 15.0)
    hyp, ell = d >= 1e-8, d <= -1e-8
    mu = np.arccosh(w[hyp])
    out[hyp] = mu / np.sinh(mu)
    # phi lies in (0, pi]: sin(phi) > 0 there in floats too
    phi = np.arccos(np.maximum(w[ell], -1.0))
    out[ell] = phi / np.sin(phi)
    return out


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
    if np.iscomplexobj(dev):
        raise TypeError(f"sl2_log_dev takes real deviation grids, not {dev.dtype}")
    w1 = tr2(dev) / 2.0  # w - 1
    f = _log_factor(1.0 + w1)
    return (dev - w1[..., None, None] * np.eye(2)) * f[..., None, None]


def sl2_expm1(x: np.ndarray) -> np.ndarray:
    """exp(X) - I for traceless real X, computed without forming exp(X)."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise TypeError(f"sl2_expm1 takes real sl(2,R) grids, not {x.dtype}")
    mu2 = -det2(x)
    sc = _sinhc(mu2)
    half = np.sqrt(np.abs(mu2)) / 2.0
    # cosh(mu)-1 = 2 sinh^2(mu/2); cos branch: cos(mu)-1 = -2 sin^2(mu/2)
    chm1 = np.empty_like(half)
    hyp = mu2 >= 0
    chm1[hyp] = 2.0 * np.sinh(half[hyp]) ** 2
    chm1[~hyp] = -2.0 * np.sin(half[~hyp]) ** 2
    return chm1[..., None, None] * IDENT + sc[..., None, None] * x


_LN2 = math.log(2.0)
# `_pow_cmp` counts base**expo and bound as tied when their logs differ by at most this, relatively
_TIE = 1e-12


def safe_log_ints(ns) -> list:
    """[log n for n in ns] for positive python ints of arbitrary size.

    Ints over 512 bits are cut to their top 53 bits first.  One loop for a
    whole list, so long lists of big ints pay no per-entry call; a
    non-positive entry raises math.log's ValueError.
    """
    out = []
    for n in ns:
        bits = n.bit_length()
        out.append(math.log(n) if bits <= 512 else math.log(n >> (bits - 53)) + (bits - 53) * _LN2)
    return out


def safe_log_int(n: int) -> float:
    """log of a positive python int of arbitrary size, by `safe_log_ints`."""
    if n <= 0:
        raise ValueError("safe_log_int needs a positive integer")
    return safe_log_ints((n,))[0]


# most bits of an exact integer power `_pow_cmp` forms; `contfrac.CfExpansion` holds exact
# convergents up to the same size, so every comparison that takes the exact route has its ints
EXACT_BITS = 4096


def _exact_pow(base: int, expo: float) -> bool:
    """`_pow_cmp` compares base**expo with exact integer powers (for base > 1)."""
    return float(expo).is_integer() and expo <= 64 and base.bit_length() * expo <= EXACT_BITS


def _pow_cmp(base: Optional[int], expo: float, bound: Optional[int], logs=None) -> int:
    """Sign of base**expo - bound for positive ints; 0 when numerically tied.

    Exact integer arithmetic is used when `expo` is a small integer, so the
    boundary cases that show up in tests (e.g. 2**3 vs 8) are decided exactly.
    `logs` = (safe_log_int(base), safe_log_int(bound)), when the caller
    already holds them, saves recomputing the logs of large ints.  `None`
    for base or bound stands for an int of more than EXACT_BITS bits known
    only by its log, which `logs` must then give.  Such a bound exceeds
    every exact power, base**expo < 2**EXACT_BITS, so the decision needs no int.
    """
    if (base is not None and base <= 0) or (bound is not None and bound <= 0):
        raise ValueError("positive integers required")
    if base == 1:
        return 0 if bound == 1 else -1
    if base is not None and _exact_pow(base, expo):
        if bound is None:
            return -1
        val = base ** int(expo)
        return (val > bound) - (val < bound)
    log_base, rhs = logs or (safe_log_int(base), safe_log_int(bound))
    lhs = expo * log_base
    if abs(lhs - rhs) <= _TIE * max(1.0, abs(rhs)):
        return 0
    return 1 if lhs > rhs else -1


def pow_leq(base: Optional[int], expo: float, bound: Optional[int], logs=None) -> bool:
    """base**expo <= bound (boundary ties count as equal)."""
    return _pow_cmp(base, expo, bound, logs=logs) <= 0


def pow_geq(base: Optional[int], expo: float, bound: Optional[int], logs=None) -> bool:
    """base**expo >= bound (boundary ties count as equal)."""
    return _pow_cmp(base, expo, bound, logs=logs) >= 0


def pow_geq_chain(q: list, expo: float, logs: list, lo: int, hi: int) -> bool:
    """pow_geq(q[i], expo, q[i + 1]) for every lo <= i < hi, decided as `_pow_cmp` decides it.

    logs[i] = safe_log_int(q_i) for a nondecreasing sequence of positive ints
    q_i, and expo > 0.  The list q holds q_i while it has at most EXACT_BITS
    bits, a prefix of the indices.  The indices where `_pow_cmp` compares
    exact integer powers (q_i = 1, or `_exact_pow`) are then a prefix of
    that prefix; they go through `pow_geq` one by one.  The rest take
    `_pow_cmp`'s log rule, its `_TIE` test in the same IEEE operations, in
    one numpy comparison.
    """
    exact = bisect.bisect_left(q, True, lo, max(lo, min(hi, len(q))),
                               key=lambda b: not (b == 1 or _exact_pow(b, expo)))
    if not all(pow_geq(q[i], expo, q[i + 1] if i + 1 < len(q) else None, (logs[i], logs[i + 1]))
               for i in range(lo, exact)):
        return False
    lhs, rhs = expo * np.array(logs[exact:hi]), np.array(logs[exact + 1:hi + 1])
    return bool(np.all((lhs > rhs) | (np.abs(lhs - rhs) <= _TIE * np.maximum(1.0, np.abs(rhs)))))
