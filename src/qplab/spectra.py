"""Periodic-approximant spectra: discriminants, Chambers deviations, band
sets, the intersection/union spectra, the integrated density of states, and
interval-set distances.

The discriminant t_{p/q}(E, theta) is the trace of the period-q transfer
block; |t| <= 2 cuts out the q bands.  The block runs on the pairwise
transfer-product kernel of `sl2`: V at the q shifted
phases comes from one product of a phase matrix with a shift matrix per chunk
of steps, and each chunk of fibers is multiplied by pairwise reduction, not
step by step, so traces agree with a sequential product to rounding.

By Floquet theory t = 2 cos k exactly at the eigenvalues of the q x q
periodic (k = 0) and antiperiodic (k = pi) Jacobi matrices, so the 2q band
edges are the sorted union of two symmetric eigenvalue spectra, one batched
solve for both matrices of a whole stack of phases.  Two edges of a gap
closer than the solver's resolution, about q eps (2 + max|V|), are one
tangency (a closed gap).  From the edges E_k^-(theta) <= E_k^+(theta) on
a phase grid, S_- is the union of the nonempty [max E_k^-, min E_k^+] and S_+
that of the moving bands [min E_k^-, max E_k^+].  For almost Mathieu,
Chambers' formula t = a_{q,0}(E) +- 2 lam^q cos 2 pi q theta makes S_-
exactly sigma(0) n sigma(1/(2q)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sl2
from .sl2 import frob, schrodinger_fiber
from .udspace import FourierSeries, _modes


class BandIndexAmbiguous(Exception):
    """E sits within tolerance of a band edge; the band index is undefined."""


class ResolutionWarning(UserWarning):
    """A result is not above the float64 rounding floor of its computation."""


# ---------------------------------------------------------------------------
# band sets (finite unions of closed intervals)
# ---------------------------------------------------------------------------


@dataclass
class BandSet:
    """Sorted disjoint closed intervals [a_i, b_i], b_i < a_{i+1}."""

    intervals: list

    def __post_init__(self):
        iv = sorted((float(a), float(b)) for a, b in self.intervals)
        merged = []
        for a, b in iv:
            if b < a:
                raise ValueError("interval with b < a")
            if merged and a <= merged[-1][1] + 1e-300:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        self.intervals = merged

    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def count(self) -> int:
        return len(self.intervals)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(a - tol <= x <= b + tol for a, b in self.intervals)

    def endpoints(self) -> list:
        out = []
        for a, b in self.intervals:
            out.extend((a, b))
        return out

    def is_empty(self) -> bool:
        return not self.intervals

    def intersect(self, other: "BandSet") -> "BandSet":
        return BandSet([
            (max(a, c), min(b, d))
            for a, b in self.intervals for c, d in other.intervals if max(a, c) <= min(b, d)
        ])

    def to_csv(self) -> str:
        lines = ["a,b"] + [f"{a!r},{b!r}" for a, b in self.intervals]
        return "\n".join(lines) + "\n"


def _dist_point(x: float, s: BandSet) -> float:
    best = math.inf
    for a, b in s.intervals:
        if a <= x <= b:
            return 0.0
        best = min(best, abs(x - a), abs(x - b))
    return best


def set_distance(a: BandSet, b: BandSet) -> dict:
    """Exact Hausdorff distance and Lebesgue measure of the symmetric difference."""
    if a.is_empty() or b.is_empty():
        raise ValueError("set_distance needs nonempty sets")

    def one_sided(src: BandSet, dst: BandSet) -> float:
        # candidates: endpoints of src, and points of src nearest to midpoints
        # of dst's gaps (where the distance function peaks)
        cands = list(src.endpoints())
        eps = dst.endpoints()
        gaps = []
        for i in range(len(dst.intervals) - 1):
            gaps.append((dst.intervals[i][1], dst.intervals[i + 1][0]))
        for g1, g2 in gaps:
            mid = (g1 + g2) / 2.0
            for A, B in src.intervals:
                if A <= mid <= B:
                    cands.append(mid)
                elif A > mid:
                    cands.append(A)
                    break
                elif B < mid:
                    cands.append(B)
        return max(_dist_point(x, dst) for x in cands)

    haus = max(one_sided(a, b), one_sided(b, a))

    # symmetric difference measure by sweeping the union of endpoints
    pts = sorted(set(a.endpoints()) | set(b.endpoints()))
    sym = 0.0
    for i in range(len(pts) - 1):
        lo, hi = pts[i], pts[i + 1]
        mid = (lo + hi) / 2.0
        if a.contains(mid) != b.contains(mid):
            sym += hi - lo
    return {"hausdorff": haus, "symdiff_measure": sym}


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------


@dataclass
class Discriminant:
    """t_{p/q}(E, theta) with its E-derivative; V given as a real series."""

    V: FourierSeries
    p: int
    q: int

    def __post_init__(self):
        if self.q < 1 or math.gcd(self.p, self.q) != 1:
            raise ValueError("need q >= 1 and gcd(p, q) = 1")

    def _vfun(self, th):
        return np.real(self.V(np.mod(th, 1.0)))

    def block(self, E, theta) -> np.ndarray:
        """The q-step block A(theta + (q-1) p/q) ... A(theta), shape broadcast(E, theta) + (2, 2).

        V at theta + s p/q is one product per chunk of steps: the chunk's
        rows of the shift matrix e^{2 pi i k (s p mod q)/q} (steps x modes)
        times the phase matrix Vhat_k e^{2 pi i k theta} (modes x theta
        points), both built once, a real V summing over k >= 0 only
        (`udspace._modes`).  The fibers
        come in entry-major chunks (2, 2, m, ...) of m = sl2._chunk_steps(P)
        steps for P points, so at most max(4096, P) are held; each chunk is
        multiplied by pairwise reduction and then onto the running product.
        The product order differs from a step-by-step product, so results
        agree with it to rounding, not bit for bit.
        """
        E = np.asarray(E, dtype=float)
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(E.shape, th.shape)
        th = (th - np.floor(th)).reshape((1,) * (len(shape) - th.ndim) + th.shape)
        ks, cols = _modes(self.V)
        phase = cols * np.exp(2j * np.pi * np.outer(ks, th))
        shifts = np.exp(2j * np.pi * np.outer(np.arange(self.q) * self.p % self.q / self.q, ks))
        m = sl2._chunk_steps(math.prod(shape))
        fib = np.zeros((2, 2, m) + shape)
        fib[0, 1], fib[1, 0] = -1.0, 1.0
        acc = np.zeros((2, 2) + shape)
        acc[0, 0] = acc[1, 1] = 1.0
        for s0 in range(0, self.q, m):
            s = shifts[s0:s0 + m]
            fib[0, 0, :len(s)] = E - np.real(s @ phase).reshape((len(s),) + th.shape)
            acc = sl2._mul(sl2._chunk_product(fib[:, :, :len(s)]), acc)
        return np.ascontiguousarray(np.moveaxis(acc, (0, 1), (-2, -1)))

    def value(self, E, theta) -> np.ndarray:
        b = self.block(E, theta)
        return b[..., 0, 0] + b[..., 1, 1]

    # no caller in the package: the tests' reference band edges use it, and
    # perfbench/tracer.py wraps it by name
    def dvalue_dE(self, E, theta) -> np.ndarray:
        """d/dE of the trace via prefix/suffix products (exact, O(q) per point)."""
        E = np.asarray(E, dtype=float)
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(E.shape, th.shape)
        mats = [
            schrodinger_fiber(self._vfun(np.broadcast_to(th + s * self.p / self.q, shape)), E)
            for s in range(self.q)
        ]
        pre = [np.broadcast_to(np.eye(2), shape + (2, 2)).copy()]
        for s in range(self.q):
            pre.append(mats[s] @ pre[-1])
        # suffix products: suf[j] = product of mats[q-1 .. j]
        suf = [None] * (self.q + 1)
        suf[self.q] = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
        for s in range(self.q - 1, -1, -1):
            suf[s] = suf[s + 1] @ mats[s]
        dE = np.array([[1.0, 0.0], [0.0, 0.0]])
        total = np.zeros(shape + (2, 2))
        for s in range(self.q):
            total = total + suf[s + 1] @ dE @ pre[s]
        return total[..., 0, 0] + total[..., 1, 1]

    def fourier(self, E: float) -> dict:
        """Coefficients a_{q,k}(E) of t = sum_k a_{q,k} e^{2 pi i q k theta}."""
        d = max(self.V.K, 1)
        Mpts = 4 * (self.q * d + 1)
        phis = np.arange(Mpts) / Mpts
        vals = self.value(np.asarray(E), phis / self.q)
        spec = np.fft.fft(vals) / Mpts
        ks = np.arange(-(Mpts // 2), (Mpts + 1) // 2)
        coeffs = {int(k): complex(spec[k % Mpts]) for k in ks}
        scale = max(abs(v) for v in coeffs.values())
        beyond = max(
            (abs(v) for k, v in coeffs.items() if abs(k) > d), default=0.0
        )
        # absolute floor: a trace can cancel to far below the product entries,
        # leaving pure roundoff beyond the bandwidth; that is not aliasing
        if scale > 0 and beyond > 1e-10 * scale and beyond > 1e-12:
            warnings.warn(f"aliasing: |a_(q,k)| = {beyond:.2e} beyond the bandwidth", stacklevel=2)
        return {"coeffs": coeffs, "bandwidth": d}


def discriminant_fourier(V: FourierSeries, p: int, q: int, E: float) -> dict:
    return Discriminant(V, p, q).fourier(E)


# the q-step block carries a rounding error of order q eps ||T_q||_F, and a
# q x q symmetric eigensolve one of order q eps ||H||; a result within this
# factor of its rounding error has at most about two correct digits
_RESOLUTION_FACTOR = 100.0


def chambers_deviation(V: FourierSeries, p: int, q: int, E: float) -> float:
    """max over theta of |t(E, theta) - a_{q,0}(E)| on a grid of one 1/q period.

    Warns with ResolutionWarning when the result is below
    100 q eps max_theta ||T_q(E, theta)||_F: there it is rounding noise of
    the q-step products, not the deviation.
    """
    d = Discriminant(V, p, q)
    G = 64 * (max(V.K, 1) + 1)
    phis = np.arange(G) / G
    b = d.block(np.asarray(E), phis / q)
    vals = b[..., 0, 0] + b[..., 1, 1]
    mean = float(np.mean(vals))
    dev = float(np.max(np.abs(vals - mean)))
    floor = _RESOLUTION_FACTOR * q * np.finfo(float).eps * float(np.max(frob(b)))
    if dev < floor:
        warnings.warn(
            f"Chambers deviation {dev:.2e} at q={q}, E={E:g} is below the rounding floor "
            f"{floor:.2e} of the q-step block",
            ResolutionWarning,
            stacklevel=2,
        )
    return dev


# ---------------------------------------------------------------------------
# band structure at fixed theta
# ---------------------------------------------------------------------------


# no caller in the package: perfbench/tracer.py wraps it by name
def _bisect(f: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Midpoints of the brackets [lo_i, hi_i] after bisecting each to width 1e-10.

    f is vectorized over E.  Every bracket is halved at once, with the
    comparisons of a one-bracket loop, so each follows its own midpoints.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo = f(lo)
    for _ in range(200):
        act = np.flatnonzero(hi - lo > 1e-10)
        if act.size == 0:
            break
        mid = (lo[act] + hi[act]) / 2.0
        fm = f(mid)
        same = (fm <= 0) == (flo[act] <= 0)
        lo[act[same]], flo[act[same]] = mid[same], fm[same]
        hi[act[~same]] = mid[~same]
    return (lo + hi) / 2.0


def _floquet_edges(V: FourierSeries, p: int, q: int, thetas) -> np.ndarray:
    """Sorted band edges of sigma(p/q, theta), shape (len(thetas), 2q).

    t(E, theta) = 2 cos k exactly at the eigenvalues of the q x q Jacobi
    matrix with diagonal V(theta + n p/q), 1 on the off-diagonals and corner
    entries e^{ik}: the periodic (k = 0) matrix gives the edges at t = 2, the
    antiperiodic (k = pi) one those at t = -2.  Adding the corners in place
    covers q = 1 and 2.  Both matrices of every phase go to one eigvalsh
    call on a (2, len(thetas), q, q) stack.  The eigensolver is accurate to
    about q eps (2 + max|V|), so the two edges of a gap closer than
    _RESOLUTION_FACTOR times that are one tangency and both take their
    midpoint.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    v = Discriminant(V, p, q)._vfun(th[:, None] + np.arange(q) * p / q)
    H = np.broadcast_to(np.eye(q, k=1) + np.eye(q, k=-1), (2,) + v.shape + (q,)).copy()
    H[:, :, np.arange(q), np.arange(q)] = v
    corner = np.array([1.0, -1.0])[:, None]
    H[:, :, 0, q - 1] += corner
    H[:, :, q - 1, 0] += corner
    eigs = np.linalg.eigvalsh(H)
    edges = np.sort(np.concatenate(eigs, axis=1), axis=1)
    tol = _RESOLUTION_FACTOR * q * np.finfo(float).eps * (2.0 + float(np.max(np.abs(v))))
    lo, hi = edges[:, 1:-1:2], edges[:, 2::2]
    shut = hi - lo <= tol
    lo[shut] = hi[shut] = (lo[shut] + hi[shut]) / 2.0
    return edges


def band_edges(V: FourierSeries, p: int, q: int, theta: float) -> dict:
    """The 2q band edges of t(., theta)^{-1}[-2, 2], from one eigenvalue solve.

    The edges are the eigenvalues of the periodic and antiperiodic q x q
    matrices (see _floquet_edges).  A gap narrower than the solver's
    resolution is closed: its two edges are equal and listed in "touchings".
    """
    edges = _floquet_edges(V, p, q, [theta])[0].tolist()
    bands = [(edges[2 * i], edges[2 * i + 1]) for i in range(q)]
    touch = [b for (_, b), (a, _) in zip(bands, bands[1:]) if a == b]
    return {"edges": edges, "bands": bands, "touchings": touch}


def band_set(V: FourierSeries, p: int, q: int, theta: float) -> BandSet:
    """sigma(p/q, theta) as a BandSet (touching bands merge in the set view)."""
    return BandSet(band_edges(V, p, q, theta)["bands"])


# ---------------------------------------------------------------------------
# phase-uniform spectra S_- and S_+
# ---------------------------------------------------------------------------


def _phases(V: FourierSeries, q: int) -> np.ndarray:
    """64 ceil((2K + 1)/8) phases on one 1/q period, for V of degree K.

    t(E, theta) is a trigonometric polynomial of degree K in q theta, so the
    grid takes at least 8 phases per Fourier mode of it: 64 for K = 1, 704
    for K = 40.
    """
    G = 64 * -(-(2 * V.K + 1) // 8)
    return np.arange(G) / (G * q)


def s_sets(V: FourierSeries, p: int, q: int) -> dict:
    """S_- = {E: max_theta |t| <= 2} and S_+ = {E: min_theta |t| <= 2}.

    With E_k^-(theta) <= E_k^+(theta) the edges of the k-th band on the
    _phases grid of one 1/q period (t is 1/q-periodic), S_- is the union of
    the nonempty [max E_k^-, min E_k^+] and S_+ the union of the moving bands
    [min E_k^-, max E_k^+].  The edges come from one batched eigenvalue
    solve, so no gap is bridged however narrow it is.
    """
    edges = _floquet_edges(V, p, q, _phases(V, q))
    low, high = edges[:, 0::2], edges[:, 1::2]
    inner = zip(low.max(axis=0), high.min(axis=0))
    return {
        "S_minus": BandSet([(a, b) for a, b in inner if a <= b]),
        "S_plus": BandSet(list(zip(low.min(axis=0), high.max(axis=0)))),
    }


def amo_s_minus_closed_form(lam: float, q: int, p: int = 1) -> BandSet:
    """S_- for the almost Mathieu potential from Chambers' formula.

    t(E, theta) = a_{q,0}(E) +- 2 lam^q cos 2 pi q theta, so max_theta |t| <= 2
    exactly where |t| <= 2 at both theta = 0 and theta = 1/(2q).
    """
    at0, at_half = (BandSet(list(zip(e[0::2], e[1::2])))
                    for e in _floquet_edges(FourierSeries.cosine(2.0 * lam), p, q, [0.0, 0.5 / q]))
    return at0.intersect(at_half)


# ---------------------------------------------------------------------------
# integrated density of states
# ---------------------------------------------------------------------------


def _moving_bands(V: FourierSeries, p: int, q: int):
    """Per-index band intervals B_k = [min_theta E_k^-, max_theta E_k^+]."""
    edges = _floquet_edges(V, p, q, _phases(V, q))
    return list(zip(edges[:, 0::2].min(axis=0), edges[:, 1::2].max(axis=0)))


def ids(V: FourierSeries, p: int, q: int, E: float, bands=None) -> float:
    """Integrated density of states of the rational-frequency family at E.

    Below the spectrum 0, above 1, constant j/q on gaps; inside the k-th
    moving band the rotation-number integral formula is used.
    """
    bands = bands if bands is not None else _moving_bands(V, p, q)
    if E < bands[0][0]:
        return 0.0
    if E > bands[-1][1]:
        return 1.0
    inside = [k for k, (a, b) in enumerate(bands) if a <= E <= b]
    if not inside:
        below = sum(1 for (a, b) in bands if b < E)
        return below / q
    if len(inside) > 1:
        raise BandIndexAmbiguous(f"E={E} lies in overlapping moving bands {inside}")
    k = inside[0] + 1  # 1-based band index
    a, b = bands[k - 1]
    if min(abs(E - a), abs(E - b)) < 1e-10:
        raise BandIndexAmbiguous(f"E={E} within 1e-10 of a band edge")
    tv = Discriminant(V, p, q).value(np.asarray(E), np.arange(256) / (256 * q))
    rho = np.where(
        tv > 2.0, 0.0, np.where(tv < -2.0, 0.5, np.arccos(np.clip(tv / 2.0, -1, 1)) / (2 * np.pi))
    )
    integral = float(np.mean(rho))  # over one 1/q period == over T by periodicity
    qN = (k - 1) + 2.0 * (-1.0) ** (q + k - 1) * integral + (1.0 - (-1.0) ** (q - k + 1)) / 2.0
    return qN / q
