"""Independent checks of qplab outputs.

Everything here is computed apart from the program: transfer products are
plain numpy loops over the almost Mathieu fibers, series are evaluated by
direct Fourier sums on grids the program never uses, and interval sets are
compared endpoint by endpoint.  No check compares against stored output.
"""

from __future__ import annotations

import math

import numpy as np


def amo_trace(lam: float, p: int, q: int, E, theta: float = 0.0) -> np.ndarray:
    """Trace of the period-q transfer product of [[E - 2 lam cos 2 pi x, -1], [1, 0]].

    x runs over theta + s p / q for s = 0 .. q-1; E may be an array.
    """
    E = np.atleast_1d(np.asarray(E, dtype=float))
    m11, m12 = np.ones_like(E), np.zeros_like(E)
    m21, m22 = np.zeros_like(E), np.ones_like(E)
    for s in range(q):
        a = E - 2.0 * lam * math.cos(2.0 * math.pi * (theta + s * p / q))
        m11, m12, m21, m22 = a * m11 - m21, a * m12 - m22, m11, m12
    return m11 + m22


def band_edge_problems(lam: float, p: int, q: int, bands: list, tol: float = 1e-8) -> list:
    """|t| = 2 at every edge, |t| <= 2 at every band midpoint, exactly q bands."""
    out = []
    if len(bands) != q:
        out.append(f"{len(bands)} bands at q={q}, expected {q}")
        return out
    edges = np.array([e for band in bands for e in band])
    dev = np.max(np.abs(np.abs(amo_trace(lam, p, q, edges)) - 2.0))
    if dev > tol:
        out.append(f"q={q}: max ||t(edge)| - 2| = {dev:.2e} > {tol:.0e}")
    mids = np.array([(a + b) / 2.0 for a, b in bands])
    over = np.max(np.abs(amo_trace(lam, p, q, mids))) - 2.0
    if over > tol:
        out.append(f"q={q}: |t| exceeds 2 by {over:.2e} at a band midpoint")
    return out


def same_sets(a: list, b: list) -> float | None:
    """Largest endpoint distance between two interval lists of equal length.

    With equal counts this bounds their Hausdorff distance; None when the
    counts differ.
    """
    if len(a) != len(b):
        return None
    return max((max(abs(x0 - y0), abs(x1 - y1)) for (x0, x1), (y0, y1) in zip(a, b)), default=0.0)


def contained(inner: list, outer: list, tol: float) -> bool:
    """Every interval of `inner` lies in one interval of `outer`, up to tol."""
    return all(any(c - tol <= a and b <= d + tol for c, d in outer) for a, b in inner)


def measure(intervals: list) -> float:
    return sum(b - a for a, b in intervals)


def intersection_measure(a: list, b: list) -> float:
    return sum(max(0.0, min(x1, y1) - max(x0, y0)) for x0, x1 in a for y0, y1 in b)


def symdiff_measure(a: list, b: list) -> float:
    """|A| + |B| - 2 |A n B| for unions of disjoint intervals."""
    return measure(a) + measure(b) - 2.0 * intersection_measure(a, b)


def fourier_sum(coeffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Real part of sum_k c_k e^{2 pi i k theta}, k = -K .. K on the last axis.

    Coefficients of shape (..., 2K+1) give values of shape (G, ...).
    """
    K = coeffs.shape[-1] // 2
    ph = np.exp(2j * np.pi * np.outer(theta, np.arange(-K, K + 1)))
    return np.real(np.tensordot(ph, coeffs, axes=([1], [-1])))


def expm_traceless(x: np.ndarray) -> np.ndarray:
    """exp of real traceless 2x2 matrices: cosh(mu) I + sinh(mu)/mu X, mu^2 = -det X."""
    mu = np.sqrt(-(x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]) + 0j)
    safe = np.where(mu == 0, 1.0, mu)
    sc = np.real(np.where(mu == 0, 1.0, np.sinh(safe) / safe))
    return np.real(np.cosh(mu))[..., None, None] * np.eye(2) + sc[..., None, None] * x


def rotation(x: np.ndarray) -> np.ndarray:
    """Counterclockwise rotation by 2 pi x."""
    c, s = np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def conjugation_residual(state, A0_coeffs: np.ndarray, G: int = 997) -> float:
    """max over an odd grid of |B(x + alpha) A0(x) B(x)^-1 - R_{rho + g/2pi}(x) e^{F(x)}|.

    B is the accumulated conjugation, (rho, g, F) the conjugated cocycle.
    """
    th = (np.arange(G) + 0.5) / G
    B = state.conj.coeffs
    Binv = np.linalg.inv(fourier_sum(B, th))
    lhs = fourier_sum(B, th + state.alpha) @ fourier_sum(A0_coeffs, th) @ Binv
    g = fourier_sum(state.g.coeffs, th)
    rhs = rotation(state.rho_f + g / (2 * np.pi)) @ expm_traceless(fourier_sum(state.F.coeffs, th))
    return float(np.max(np.sqrt(np.sum((lhs - rhs) ** 2, axis=(1, 2)))))


def half_circle_dist(a: float, b: float) -> float:
    d = (a - b) % 0.5
    return min(d, 0.5 - d)


def circle_dist(a: float, b: float) -> float:
    d = (a - b) % 1.0
    return min(d, 1.0 - d)
