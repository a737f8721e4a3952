"""Periodic-approximant spectra: discriminants, Chambers deviations, band
sets, the intersection/union spectra, the integrated density of states, and
interval-set distances.

The discriminant t_{p/q}(E, theta) is the trace of the period-q transfer
block; |t| <= 2 cuts out the q bands.  Band edges are isolated from the
monotone pieces between critical points of t in E, so tangential band
touchings (closed gaps) are found reliably.  Every root is refined by one
bisection that halves all of its brackets at once, and the phase-uniform sets
S_-, S_+ come from one sublevel-set scan.  The S_- scan grid is split at the
gaps of sigma(theta=0), which contains S_-, so no gap narrower than the scan
step is bridged.  For almost Mathieu, Chambers' formula
t = a_{q,0}(E) +- 2 lam^q cos 2 pi q theta makes S_- exactly
sigma(0) n sigma(1/(2q)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sl2 import frob, schrodinger_fiber
from .udspace import FourierSeries


class RootIsolationError(Exception):
    """The E-scan could not separate near-degenerate band edges."""


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
        """Ordered product over s = q-1 .. 0 of the fibers at theta + s p/q."""
        E = np.asarray(E, dtype=float)
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(E.shape, th.shape)
        acc = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
        for s in range(self.q):
            acc = schrodinger_fiber(self._vfun(np.broadcast_to(th + s * self.p / self.q, shape)), E) @ acc
        return acc

    def value(self, E, theta) -> np.ndarray:
        b = self.block(E, theta)
        return b[..., 0, 0] + b[..., 1, 1]

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

    def fourier(self, E: float, oversample: int = 4) -> dict:
        """Coefficients a_{q,k}(E) of t = sum_k a_{q,k} e^{2 pi i q k theta}."""
        if oversample < 4:
            raise ValueError("oversample must be >= 4")
        d = max(self.V.K, 1)
        Mpts = oversample * (self.q * d + 1)
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


def discriminant(V: FourierSeries, p: int, q: int, E: float, theta: float) -> float:
    return float(Discriminant(V, p, q).value(np.asarray(E), np.asarray(theta)))


def discriminant_fourier(V: FourierSeries, p: int, q: int, E: float, oversample: int = 4) -> dict:
    return Discriminant(V, p, q).fourier(E, oversample)


# the q-step block carries a rounding error of order q eps ||T_q||_F; a
# deviation within this factor of it has at most about two correct digits
_RESOLUTION_FACTOR = 100.0


def chambers_deviation(V: FourierSeries, p: int, q: int, E: float, grid: int = 0) -> float:
    """max over theta of |t(E, theta) - a_{q,0}(E)| on a grid of one 1/q period.

    Warns with ResolutionWarning when the result is below
    100 q eps max_theta ||T_q(E, theta)||_F: there it is rounding noise of
    the q-step products, not the deviation.
    """
    d = Discriminant(V, p, q)
    G = grid or 64 * (max(V.K, 1) + 1)
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


def e_window(V: FourierSeries, margin: float = 0.5) -> tuple[float, float]:
    s = float(np.max(np.abs(np.real(V.values(max(64, 8 * (V.K + 1)))))))
    return (-2.0 - s - margin, 2.0 + s + margin)


# energies per block of the sublevel-set scan; bounds its (E, theta) batch
_SCAN_BLOCK = 128


def _bisect(f: Callable[[np.ndarray], np.ndarray], lo, hi, tol: float = 1e-10) -> np.ndarray:
    """Midpoints of the brackets [lo_i, hi_i] after bisecting each to width tol.

    f is vectorized over E.  Every bracket is halved at once, with the
    comparisons of a one-bracket loop, so each follows its own midpoints.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo = f(lo)
    for _ in range(200):
        act = np.flatnonzero(hi - lo > tol)
        if act.size == 0:
            break
        mid = (lo[act] + hi[act]) / 2.0
        fm = f(mid)
        same = (fm <= 0) == (flo[act] <= 0)
        lo[act[same]], flo[act[same]] = mid[same], fm[same]
        hi[act[~same]] = mid[~same]
    return (lo + hi) / 2.0


def _sublevel_intervals(f: Callable[[np.ndarray], np.ndarray], Es: np.ndarray) -> BandSet:
    """{f <= 0} seen on the sorted grid Es, every edge bisected between grid points."""
    vals = np.concatenate([f(Es[i:i + _SCAN_BLOCK]) for i in range(0, Es.size, _SCAN_BLOCK)])
    inside = vals <= 0
    flips = np.flatnonzero(inside[1:] != inside[:-1])
    cuts = _bisect(f, Es[flips], Es[flips + 1])
    starts = list(cuts[inside[flips + 1]])
    ends = list(cuts[inside[flips]])
    if inside[0]:
        starts.insert(0, Es[0])
    if inside[-1]:
        ends.append(Es[-1])
    return BandSet(list(zip(starts, ends)))


def band_edges(V: FourierSeries, p: int, q: int, theta: float, window=None,
               grid_per_band: int = 64, refine: int = 2, touch_tol: float = 1e-8) -> dict:
    """The 2q band edges (with touchings doubled) of t(., theta)^{-1}[-2, 2].

    Critical points of t are isolated first; on each monotone piece the
    crossings of +-2 are bisected.  A critical value within touch_tol of +-2
    is registered as a tangency (double edge / closed gap); t is monotone on
    the two pieces meeting there, so neither holds another crossing of that
    level and neither is searched for one.
    """
    d = Discriminant(V, p, q)
    th = np.asarray(theta)
    lo, hi = window or e_window(V)
    npts = grid_per_band * q
    for attempt in range(refine + 1):
        Es = np.linspace(lo, hi, npts + 1)
        dv = d.dvalue_dE(Es, th)
        # critical points from sign changes of dt/dE (exact grid zeros counted once)
        zero = dv[:-1] == 0.0
        flip = ~zero & (dv[:-1] * dv[1:] < 0)
        crit = Es[:-1].copy()
        crit[flip] = _bisect(lambda e: d.dvalue_dE(e, th), Es[:-1][flip], Es[1:][flip])
        crit = crit[zero | flip]
        if len(crit) == q - 1:
            break
        npts *= 2
    if len(crit) != q - 1:
        raise RootIsolationError(
            f"found {len(crit)} critical points, expected {q - 1}; refine the window"
        )
    pieces = np.concatenate(([lo], crit, [hi]))
    tp = d.value(pieces, th)
    edges = []
    touch = []
    searched = {2.0: np.ones(q, bool), -2.0: np.ones(q, bool)}  # per monotone piece
    for j, (c, tc) in enumerate(zip(crit, tp[1:-1])):
        if abs(abs(tc) - 2.0) <= touch_tol:
            edges.extend([c, c])
            touch.append(c)
            searched[math.copysign(2.0, tc)][j:j + 2] = False
    for lvl, todo in searched.items():
        f = tp - lvl
        k = np.flatnonzero(todo & ((f[:-1] < 0) != (f[1:] < 0)))
        edges.extend(_bisect(lambda e: d.value(e, th) - lvl, pieces[k], pieces[k + 1]))
    edges = sorted(float(e) for e in edges)
    if len(edges) != 2 * q:
        raise RootIsolationError(f"isolated {len(edges)} band edges, expected {2 * q}")
    bands = [(edges[2 * i], edges[2 * i + 1]) for i in range(q)]
    return {"edges": edges, "bands": bands, "touchings": touch}


def band_set(V: FourierSeries, p: int, q: int, theta: float, window=None) -> BandSet:
    """sigma(p/q, theta) as a BandSet (touching bands merge in the set view)."""
    be = band_edges(V, p, q, theta, window)
    return BandSet(be["bands"])


# ---------------------------------------------------------------------------
# phase-uniform spectra S_- and S_+
# ---------------------------------------------------------------------------


def s_sets(V: FourierSeries, p: int, q: int, theta_grid_size: int = 64,
           window=None, scan_per_band: int = 64) -> dict:
    """S_- = {E: max_theta |t| <= 2} and S_+ = {E: min_theta |t| <= 2}.

    The theta grid covers one 1/q period (t is 1/q-periodic); boundaries are
    bisection-refined on the grid criterion.  S_- lies in sigma(theta=0), so
    its scan grid also holds the midpoint of every open gap of sigma(0).
    """
    d = Discriminant(V, p, q)
    lo, hi = window or e_window(V)
    ths = np.arange(theta_grid_size) / (theta_grid_size * q)
    Es = np.linspace(lo, hi, scan_per_band * q + 1)
    bands = band_edges(V, p, q, 0.0, window)["bands"]
    gap_mids = [(g0 + g1) / 2.0 for (_, g0), (g1, _) in zip(bands, bands[1:]) if g0 < g1]

    def abs_t(e):
        return np.abs(d.value(e[:, None], ths))

    return {
        "S_minus": _sublevel_intervals(lambda e: np.max(abs_t(e), axis=-1) - 2.0,
                                       np.union1d(Es, gap_mids)),
        "S_plus": _sublevel_intervals(lambda e: np.min(abs_t(e), axis=-1) - 2.0, Es),
    }


def amo_s_minus_closed_form(lam: float, q: int, p: int = 1) -> BandSet:
    """S_- for the almost Mathieu potential from Chambers' formula.

    t(E, theta) = a_{q,0}(E) +- 2 lam^q cos 2 pi q theta, so max_theta |t| <= 2
    exactly where |t| <= 2 at both theta = 0 and theta = 1/(2q).
    """
    V = FourierSeries.cosine(2.0 * lam)
    return band_set(V, p, q, 0.0).intersect(band_set(V, p, q, 0.5 / q))


# ---------------------------------------------------------------------------
# integrated density of states
# ---------------------------------------------------------------------------


def _moving_bands(V: FourierSeries, p: int, q: int, theta_grid_size: int = 32, window=None):
    """Per-index band intervals B_k = [min_theta E_k^-, max_theta E_k^+]."""
    ths = np.arange(theta_grid_size) / (theta_grid_size * q)
    lows = np.full(q, np.inf)
    highs = np.full(q, -np.inf)
    for th in ths:
        be = band_edges(V, p, q, float(th), window)
        for k, (a, b) in enumerate(be["bands"]):
            lows[k] = min(lows[k], a)
            highs[k] = max(highs[k], b)
    return list(zip(lows, highs))


def ids(V: FourierSeries, p: int, q: int, E: float, theta_grid_size: int = 256,
        window=None, edge_tol: float = 1e-10, bands=None) -> float:
    """Integrated density of states of the rational-frequency family at E.

    Below the spectrum 0, above 1, constant j/q on gaps; inside the k-th
    moving band the rotation-number integral formula is used.
    """
    bands = bands if bands is not None else _moving_bands(V, p, q, window=window)
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
    if min(abs(E - a), abs(E - b)) < edge_tol:
        raise BandIndexAmbiguous(f"E={E} within {edge_tol} of a band edge")
    d = Discriminant(V, p, q)
    ths = np.arange(theta_grid_size) / (theta_grid_size * q)
    tv = d.value(np.asarray(E), ths)
    rho = np.where(
        tv > 2.0, 0.0, np.where(tv < -2.0, 0.5, np.arccos(np.clip(tv / 2.0, -1, 1)) / (2 * np.pi))
    )
    integral = float(np.mean(rho))  # over one 1/q period == over T by periodicity
    qN = (k - 1) + 2.0 * (-1.0) ** (q + k - 1) * integral + (1.0 - (-1.0) ** (q - k + 1)) / 2.0
    return qN / q
