"""Quasiperiodic SL(2,R) cocycles over the irrational rotation.

Transfer matrices with overflow-guarded scaling, finite Lyapunov exponents
by grid quadrature, the fibered rotation number estimated from a single
projective orbit, and the renormalization iterates with their commutation
identity.  One kernel, `_transfer_grid`, serves every transfer product: any
integer n (n < 0 by the inverse-product convention) at any set of phases.

Every fiber is a 2x2 FourierSeries, read at many points as one product of
phases e^{2 pi i k x} (points x modes) and coefficients (modes x entries),
a real series over k >= 0 only (`udspace._modes`).  The Schrodinger fiber
is the real series [[E - V, -1], [1, 0]].

The rotation number reads each projective step through a lift of the fiber
that is continuous in theta: the angle of A(theta) e_1, unwrapped on a
reference grid, which `rotation_number` certifies to close up.  Orbits
evaluate the fiber in blocks of at most 4096 points rather than one step at
a time, each block read off one shared phase block of at most 2^16 entries
(up to 1024 modes).

Grid products (`_transfer_grid`, `lyapunov_det_drift`) run on the chunked
pairwise kernel of `sl2`: the fiber comes in entry-major chunks (2, 2, m, G)
of m steps on a G-point theta grid, m a power of two dividing RESCALE_EVERY
with m G <= 4096 unless m = 1, so no partial product covers more than
RESCALE_EVERY consecutive steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sl2
from .contfrac import CfExpansion
from .udspace import FourierSeries, _modes

RESCALE_EVERY = sl2._CHUNK  # every chunk length divides it
_LIFT_GRID = 256  # reference grid of the e_1 lift, whose winding rotation_number reads
_CHAIN = 64  # sequential steps of one prefix product in the orbit kernel
_PHASE_ENTRIES = 1 << 16  # most entries of the shared phase block of an orbit (1 MB)


class WindingError(Exception):
    """Fiber map is not homotopic to the identity."""


class LiftResolutionError(WindingError):
    """An orbit angle of A(theta) e_1 is a quarter turn or more from the reference lift.

    The fiber turns faster between reference grid points than the grid
    resolves, so the lift continuous in theta cannot be read off the grid.
    """


class RenormOverflow(ArithmeticError):
    """A renormalization iterate, or a side of its commutation identity, is not finite in float64."""


@dataclass
class QpCocycle:
    """(alpha, A): base rotation by alpha, fiber A(theta) in SL(2,R) given as a 2x2 FourierSeries."""

    alpha: float
    series: FourierSeries

    @classmethod
    def from_series(cls, alpha: float, A: FourierSeries) -> "QpCocycle":
        return cls(alpha, A)

    def _e1_lift(self) -> np.ndarray:
        """Angle of A(theta) e_1 in units of pi at theta = j/256, j = 0..256, unwrapped in theta."""
        vals = self.series(np.arange(_LIFT_GRID + 1) / _LIFT_GRID)
        return np.unwrap(np.arctan2(vals[..., 1, 0], vals[..., 0, 0])) / np.pi


def schrodinger(V: FourierSeries, E: float, alpha: float = 0.0) -> QpCocycle:
    """Schrodinger cocycle, fiber the real series [[E - V(theta), -1], [1, 0]]."""
    if not V.check_real(1e-10):
        raise ValueError("potential must be real-valued")
    c = np.zeros((2, 2, 2 * V.K + 1), dtype=complex)
    c[0, 0] = -V.coeffs
    c[0, 0, V.K] += E
    c[0, 1, V.K], c[1, 0, V.K] = -1.0, 1.0
    return QpCocycle(alpha, FourierSeries(c, True))


def amo(lam: float, E: float, alpha: float = 0.0) -> QpCocycle:
    """Almost Mathieu fiber with the 1-periodic convention V = 2 lam cos(2 pi theta)."""
    return schrodinger(FourierSeries.cosine(2.0 * lam), E, alpha)


def rotation_cocycle(alpha: float, rho: float) -> QpCocycle:
    return QpCocycle(alpha, FourierSeries.constant(sl2.rot(rho)))


def _frac(x):
    """x mod 1 in the bits of np.mod(x, 1.0) for every finite x, at the cost of one floor."""
    return x - np.floor(x)


def _grid_chunks(c: QpCocycle, thetas: np.ndarray, n: int):
    """Fibers at thetas + j alpha for j = 0..n-1 as entry-major chunks (2, 2, m, G).

    A chunk is one product: the step phases e^{2 pi i k frac(j alpha)}
    (steps x modes) times the coefficients at the grid phases
    e^{2 pi i k theta_g} (modes x 4G, built once per call).  m =
    sl2._chunk_steps(G) divides RESCALE_EVERY, so every chunk that is not
    the last one ends on a rescaling step, and at most max(4096, G) points
    are held.
    """
    G = thetas.size
    ks, cols = _modes(c.series)
    right = (cols[:, :, None] * np.exp(2j * np.pi * np.outer(ks, thetas))[:, None, :]).reshape(ks.size, -1)
    m = sl2._chunk_steps(G)
    for j0 in range(0, n, m):
        steps = _frac(np.arange(j0, min(j0 + m, n)) * c.alpha)
        vals = (np.exp(2j * np.pi * np.outer(steps, ks)) @ right).reshape(-1, 2, 2, G)
        yield np.ascontiguousarray(np.moveaxis(vals.real if c.series.real_flag else vals, 0, 2))


def _transfer_grid(c: QpCocycle, thetas: np.ndarray, n: int):
    """Vectorized n-step products over a theta grid; returns (mats (G, 2, 2), log_scales (G,)).

    The product is A_n(theta) = mats * exp(log_scales).  n = 0 gives the
    identity.  n < 0 gives the inverse product
    A(theta + n alpha)^{-1} ... A(theta - alpha)^{-1}, computed as the -n
    step product of the fiber A^{-1} over the rotation by -alpha from
    theta - alpha; A^{-1} is the adjugate of A, taken coefficientwise.

    Each chunk of steps from `_grid_chunks` is multiplied by pairwise
    reduction (`_chunk_product`) and then onto the running product, which is
    rescaled to max entry 1 every RESCALE_EVERY steps with the logs of the
    factors kept apart.  No partial product covers more than RESCALE_EVERY
    consecutive steps, as in a sequential product between rescales, and no
    more than max(4096, G) fiber values are held at once.  The product order
    differs from a step-by-step product, so results agree with it to
    rounding, not bit for bit.
    """
    if n < 0:
        (a11, a12), (a21, a22) = c.series.coeffs
        adj = FourierSeries(np.array([[a22, -a12], [-a21, a11]]), c.series.real_flag)
        thetas, n, c = thetas - c.alpha, -n, QpCocycle(-c.alpha, adj)
    G = thetas.size
    acc = np.zeros((2, 2, G))
    acc[0, 0] = acc[1, 1] = 1.0
    log_scale = np.zeros(G)
    j = 0
    for vals in _grid_chunks(c, thetas, n):
        acc = sl2._mul(sl2._chunk_product(vals), acc)
        j += vals.shape[2]
        if j % RESCALE_EVERY == 0:
            s = np.max(np.abs(acc), axis=(0, 1))
            acc /= s
            log_scale += np.log(s)
    return np.ascontiguousarray(np.moveaxis(acc, -1, 0)), log_scale


def finite_lyapunov(c: QpCocycle, n: int, grid: int = 128) -> float:
    """L_n = (1/n) * integral of ln ||A_n(theta)|| d theta, uniform-grid quadrature."""
    if n < 1 or grid < 64:
        raise ValueError("need n >= 1 and grid >= 64")
    th = np.arange(grid) / grid
    acc, log_scale = _transfer_grid(c, th, n)
    ln_norms = np.log(sl2.op_norm(acc)) + log_scale
    return float(np.mean(ln_norms)) / n


def lyapunov_det_drift(c: QpCocycle, n: int) -> float:
    """Accumulated determinant drift of the length-n product, block-resolved.

    The determinant is exactly multiplicative across blocks, so the total
    arithmetic drift is the sum of per-block |ln det| values; blocks of 4
    steps are short enough that each block product is well-conditioned and
    its determinant is computable at float precision.  The blocks are formed
    by the pairwise `_chunk_product` of `_transfer_grid`, so the drift is that
    of the arithmetic `_transfer_grid` does.  Max over a 64-point theta grid.
    """
    drift = np.zeros(64)
    for vals in _grid_chunks(c, np.arange(64) / 64, n):
        pad = -vals.shape[2] % 4  # the last block of a short product, filled up with identities
        if pad:
            eye = np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2, pad, 64))
            vals = np.concatenate([vals, eye], axis=2)
        p = sl2._chunk_product(vals.reshape(2, 2, -1, 4, 64).swapaxes(2, 3))
        drift += np.sum(np.abs(np.log(np.abs(sl2.det2(np.moveaxis(p, (0, 1), (-2, -1)))))), axis=0)
    return float(np.max(drift))


def _orbit_fibers(c: QpCocycle, theta0: float, n: int):
    """Fibers along the orbit theta0 + j alpha, j = 0..n-1, in blocks of at most 4096 points.

    Yields (thetas, mats).  A block is cut into sub-blocks of R points:
    point r of sub-block i sits at theta = (t_i + s_r) mod 1, where
    s_r = r alpha mod 1 and t_i = (block start + (i R alpha mod 1)) mod 1,
    so the thetas carry the bits the phases below are built from.  Each
    block is one product phase @ C instead of an exponential per point and
    mode: the shared phase block holds the powers z_r^k of
    z_r = e^{2 pi i s_r}, from one running product whose error grows like
    k eps, and C the coefficients (`udspace._modes`) times the start phases
    e^{2 pi i k t_i}.  R is the largest power of two up to 4096 with R
    times the number of modes at most _PHASE_ENTRIES, but at least 64, so
    up to 1024 modes the phase block takes at most 1 MB whatever K is.
    """
    A = c.series
    ks, cols = _modes(A)
    steps = _frac(c.alpha * np.arange(min(sl2._BATCH, n)))
    R = sl2._BATCH
    while R > 64 and R * ks.size > _PHASE_ENTRIES:
        R //= 2
    z = np.exp(2j * np.pi * steps[:R])
    pos = np.cumprod(np.broadcast_to(z[:, None], (z.size, A.K)), axis=1)
    neg = [] if A.real_flag else [np.conj(pos[:, ::-1])]
    phase = np.concatenate(neg + [np.ones((z.size, 1)), pos], axis=1)
    del pos
    starts, sub = steps[::R], steps[:R]
    th = theta0
    for j in range(0, n, sl2._BATCH):
        m = min(sl2._BATCH, n - j)
        t = _frac(th + starts[:-(-m // R)])
        thetas = _frac(t[:, None] + sub[:m]).ravel()[:m]
        # C[k, i, entry]: coefficient times start phase of sub-block i
        C = np.exp(2j * np.pi * np.outer(ks, t))[:, :, None] * cols[:, None, :]
        vals = phase @ C.reshape(ks.size, -1)
        del C  # not held while the next block builds its own
        vals = vals.reshape(len(sub), -1, 4).swapaxes(0, 1).reshape(-1, 2, 2)[:m]
        yield thetas, (np.real(vals) if A.real_flag else vals)
        th = (th + c.alpha * m) % 1.0


def _orbit_vectors(mats: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A_i ... A_0 vec for i = 0..m-1, each up to a positive factor.

    Runs _CHAIN sequential steps of prefix products, vectorized over the
    sub-blocks and rescaled at every step, then chains the sub-blocks with
    one product each.
    """
    m = len(mats)
    nb = -(-m // _CHAIN)
    pad = np.broadcast_to(np.eye(2), (nb * _CHAIN - m, 2, 2))
    blocks = np.concatenate([mats, pad]).reshape(nb, _CHAIN, 2, 2)
    pre = np.empty_like(blocks)
    P = np.broadcast_to(np.eye(2), (nb, 2, 2))
    for i in range(_CHAIN):
        P = blocks[:, i] @ P
        P = P / np.max(np.abs(P), axis=(1, 2))[:, None, None]
        pre[:, i] = P
    starts = np.empty((nb, 2))
    for b in range(nb):
        starts[b] = vec
        vec = pre[b, -1] @ vec
        vec = vec / math.hypot(vec[0], vec[1])
    return (pre @ starts[:, None, :, None]).reshape(nb * _CHAIN, 2)[:m]


def rotation_number(c: QpCocycle, n: int = 200_000) -> dict:
    """Fibered rotation number from one projective orbit, from theta = 0 and angle 0.3 pi.

    Works on the projective circle (directions mod pi), where the angle
    advance of R_rho is 2*rho per step; the estimate is therefore a
    representative of rho mod 1/2, reported in [0, 1/2).  Each step is read
    through the lift of the fiber that is continuous in theta: F(0) = a, the
    angle of A(theta) e_1 (in units of pi) taken nearest to its reference
    lift, which is unwrapped on a 256-point theta grid and interpolated.
    Since F maps [0, 1) onto [a, a + 1), a step from x in [0, 1) to x'
    advances by a + ((x' - a) mod 1) - x.  Raises WindingError unless the
    fiber has winding 0, and LiftResolutionError where an orbit angle is a
    quarter turn or more from its reference lift.

    Returns {"rho", "error_bar"}; error_bar is the maximal fluctuation of the
    partial averages over the last decade of the orbit.
    """
    lift = c._e1_lift()
    w = int(round((lift[-1] - lift[0]) / 2.0))
    if w != 0:
        raise WindingError(f"fiber has winding {w}, not homotopic to identity")
    # projective coordinate: x in [0,1) represents direction angle pi*x
    vec = np.array([math.cos(math.pi * 0.3), math.sin(math.pi * 0.3)])
    x = math.atan2(vec[1], vec[0]) / math.pi % 1.0
    total = 0.0
    averages = []  # at the powers of two from n // 10 on, and at n
    j = 0
    for thetas, mats in _orbit_fibers(c, 0.0, n):
        m = len(mats)
        pos = thetas * _LIFT_GRID
        i0 = np.minimum(pos.astype(int), _LIFT_GRID - 1)
        ref = lift[i0] + (pos - i0) * (lift[i0 + 1] - lift[i0])
        raw = np.arctan2(mats[:, 1, 0], mats[:, 0, 0]) / np.pi
        a = raw + 2.0 * np.round((ref - raw) / 2.0)
        off = np.abs(a - ref)
        if np.max(off) >= 0.5:
            raise LiftResolutionError(
                f"orbit angle {np.max(off):.3f} pi from the reference lift at theta="
                f"{thetas[np.argmax(off)]:.6f}; the {_LIFT_GRID}-point grid does not resolve the fiber")
        vecs = _orbit_vectors(mats, vec)
        xs = np.concatenate(([x], np.mod(np.arctan2(vecs[:, 1], vecs[:, 0]) / np.pi, 1.0)))
        d = a + np.mod(xs[1:] - a, 1.0) - xs[:-1]
        totals = np.cumsum(np.concatenate(([total], d)))[1:]
        js = np.arange(j + 1, j + m + 1)
        keep = (js >= n // 10) & ((js & (js - 1)) == 0) | (js == n)
        averages += [float(t) / int(k) for k, t in zip(js[keep], totals[keep])]
        total, x, j = float(totals[-1]), float(xs[-1]), j + m
        vec = vecs[-1] / math.hypot(vecs[-1, 0], vecs[-1, 1])
    avg = total / n
    err = max((abs(v - avg) for v in averages), default=0.0)
    rho = (avg / 2.0) % 0.5
    return {"rho": rho, "error_bar": err / 2.0}


def rho_dist(a: float, b: float) -> float:
    """Distance between rotation numbers on the half-circle R/(1/2)Z."""
    d = (a - b) % 0.5
    return min(d, 0.5 - d)


def renorm_iterates(c: QpCocycle, cf: CfExpansion, n: int) -> dict:
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
    sgn0 = 1 if (n - 1) % 2 == 0 else -1  # (-1)^(n-1)

    def iterate(steps):
        def a(x):
            pts = beta * np.atleast_1d(np.asarray(x, dtype=float))
            mats, log_scale = _transfer_grid(c, pts, steps)
            with np.errstate(over="ignore", invalid="ignore"):
                out = mats * np.exp(log_scale)[:, None, None]
            if not np.all(np.isfinite(out)):
                raise RenormOverflow(f"level {n}: the {steps}-step iterate exceeds float64 "
                                     f"(log scale up to {np.max(log_scale):.1f})")
            return out

        return a

    q_prev, q_n = cf.convergent(n - 1)[1], cf.convergent(n)[1]
    return {"A_n0": iterate(sgn0 * q_prev), "A_n1": iterate(-sgn0 * q_n),
            "alpha_n": alpha_n, "level": n}


def commutation_residual(it: dict, xs: np.ndarray) -> float:
    """Relative residual of A1(x+1) A0(x) - A0(x+alpha_n) A1(x) on sample points."""
    a0, a1, an = it["A_n0"], it["A_n1"], it["alpha_n"]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = a1(xs + 1.0) @ a0(xs)
        rhs = a0(xs + an) @ a1(xs)
        num = np.max(sl2.frob(lhs - rhs))
        den = max(np.max(sl2.frob(lhs)), 1.0)
        res = float(num / den)
    # finite only if both sides and their Frobenius norms are
    if not math.isfinite(res):
        raise RenormOverflow(f"level {it['level']}: the commutation identity's sides or their "
                             "norms exceed float64")
    return res


def cocycle_property_residual(c: QpCocycle, theta: float, m: int, n: int) -> float:
    """Relative residual of A_{m+n}(theta) = A_m(theta + n alpha) A_n(theta)."""
    calls = ((theta, m + n), ((theta + n * c.alpha) % 1.0, m), (theta, n))
    (left, l0), (am, l1), (an, l2) = (_transfer_grid(c, np.array([t]), k) for t, k in calls)
    # align scales before comparing
    shift = math.exp(min(float(l1[0] + l2[0] - l0[0]), 50.0))
    diff = np.max(np.abs(am[0] @ an[0] * shift - left[0]))
    return float(diff / max(np.max(np.abs(left[0])), 1e-300))
